// Fabric monitor: the periodic link and buffer samples behind Figures 2b,
// 3, 4 and 5, taken without a timer.
//
// Every `interval` (samples fall at interval, 2*interval, ...) it records:
//  * link series (Figures 3/4): the fraction of directed links, host links
//    included, at or above kHotUtilization over the window that ends at the
//    sample, and the fraction at or above half the busiest link's
//    utilization (the Flyways definition of "hot");
//  * buffer series (Figure 5): for each switch with an output queue at or
//    above kCongestedFraction of capacity, the fraction of buffer still free
//    in its 1-hop and 2-hop switch neighborhoods;
//  * optional per-port depth snapshots of chosen switches (Figure 2b).
//
// It is a TraceSink on kEnqueue and kDequeue and schedules nothing. Before
// it applies an event at time t it takes every sample due at or before t,
// and Finish() takes those still due at or before Now(). Every change it
// reads follows one of those events (Port dispatches kEnqueue and kDequeue
// before it transmits and adds to bytes_sent, and every depth change
// reports one), so a sample at instant s taken on an event reflects exactly
// the enqueues, dequeues and transmissions strictly before s; one taken by
// Finish() reflects the state at Now(). A run with the monitor on executes
// the same events as one without it.

#ifndef SRC_STATS_FABRIC_MONITOR_H_
#define SRC_STATS_FABRIC_MONITOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/device/network.h"
#include "src/device/port.h"
#include "src/trace/trace_sink.h"

namespace dibs {

class FabricMonitor : public TraceSink {
 public:
  static constexpr TraceKindSet kKinds =
      TraceKinds({TraceEventType::kEnqueue, TraceEventType::kDequeue});
  // Figure 4: a link is hot at >= 90% utilization.
  static constexpr double kHotUtilization = 0.9;
  // Figure 5: a switch is congested when a queue is >= 90% full.
  static constexpr double kCongestedFraction = 0.9;

  struct Snapshot {
    Time at;
    std::vector<std::vector<size_t>> queue_lengths;  // [snapshot switch][port]
  };

  // Subscribes itself to `network`'s enqueue and dequeue events.
  FabricMonitor(Network* network, Time interval, std::vector<int> snapshot_switches = {});
  FabricMonitor(const FabricMonitor&) = delete;  // the network holds its address
  FabricMonitor& operator=(const FabricMonitor&) = delete;

  void OnEvent(const TraceEvent& e) override;

  // Takes the samples due at or before Now() and stops sampling.
  void Finish() override;

  // One entry per sample.
  const std::vector<double>& hot_fractions() const { return hot_fractions_; }
  const std::vector<double>& relative_hot_fractions() const { return relative_hot_fractions_; }
  // One entry per (sample, congested switch).
  const std::vector<double>& one_hop_free_fractions() const { return one_hop_free_; }
  const std::vector<double>& two_hop_free_fractions() const { return two_hop_free_; }
  const std::vector<Snapshot>& snapshots() const { return snapshots_; }

 private:
  // Takes every sample due at or before `t`; returns whether it took any.
  bool SampleThrough(Time t);
  void Sample(Time at);
  void SampleLinks();
  void SampleBuffers();
  double FreeFraction(const std::vector<int>& switches) const;
  // DIBS_VALIDATE: the event-fed depth matrix must equal the queues.
  void CheckDepthSync() const;

  // Observation only: the monitor never mutates the network it watches.
  const Network& net_;
  Time interval_;
  Time next_sample_;
  std::vector<int> snapshot_switches_;

  std::vector<const Port*> ports_;  // every directed link (one port = one direction)
  std::vector<uint64_t> last_bytes_;
  std::vector<double> utilizations_;

  // depths_[node][port] = occupancy after the last enqueue/dequeue there.
  // Host nodes get empty vectors, so their events leave the matrix alone.
  std::vector<std::vector<size_t>> depths_;
  // Switch neighborhoods, keyed by switch id (ordered: determinism lint).
  std::map<int, std::vector<int>> one_hop_;
  std::map<int, std::vector<int>> two_hop_;

  std::vector<double> hot_fractions_;
  std::vector<double> relative_hot_fractions_;
  std::vector<double> one_hop_free_;
  std::vector<double> two_hop_free_;
  std::vector<Snapshot> snapshots_;
};

}  // namespace dibs

#endif  // SRC_STATS_FABRIC_MONITOR_H_
