// Periodic buffer-occupancy sampler.
//
// Serves two figures:
//  * Figure 2b: per-port queue-length snapshots for a chosen set of switches
//    (the congested pod) over time.
//  * Figure 5: whenever some switch is congested (any output queue at or
//    above `congested_fraction` of capacity), record the fraction of buffer
//    space still free across its 1-hop and 2-hop switch neighborhoods.
//
// Queue depths come from kEnqueue/kDequeue events (every event reports the
// occupancy after the operation), so sampling reads a local matrix instead
// of re-polling every queue — and the monitor's view is, by
// construction, exactly the device layer's. DIBS_VALIDATE cross-checks the
// two on every sample.

#ifndef SRC_STATS_BUFFER_MONITOR_H_
#define SRC_STATS_BUFFER_MONITOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/device/network.h"
#include "src/sim/simulator.h"

namespace dibs {

class BufferMonitor : public TraceSink {
 public:
  static constexpr TraceKindSet kKinds =
      TraceKinds({TraceEventType::kEnqueue, TraceEventType::kDequeue});

  struct Options {
    Time interval = Time::Millis(1);
    double congested_fraction = 0.9;
    std::vector<int> snapshot_switches;  // Figure 2b subjects (may be empty)
    Time stop_time = Time::Max();
  };

  struct Snapshot {
    Time at;
    std::vector<std::vector<size_t>> queue_lengths;  // [snapshot switch][port]
  };

  // Subscribes itself to `network`'s enqueue/dequeue events.
  BufferMonitor(Network* network, Options options);

  void Start();

  // Keeps the per-switch depth matrix current. Host-node events are
  // ignored (hosts have no per-port entry in the matrix).
  void OnEvent(const TraceEvent& e) override {
    std::vector<size_t>& depths = depths_[static_cast<size_t>(e.node)];
    if (static_cast<size_t>(e.port) < depths.size()) {
      depths[static_cast<size_t>(e.port)] = static_cast<size_t>(e.queue_depth);
    }
  }

  // Figure 5 samples: per (sample, congested switch), fraction of neighbor
  // buffer slots that are free, at radius 1 and radius 2.
  const std::vector<double>& one_hop_free_fractions() const { return one_hop_free_; }
  const std::vector<double>& two_hop_free_fractions() const { return two_hop_free_; }

  const std::vector<Snapshot>& snapshots() const { return snapshots_; }

  uint64_t congested_samples() const { return congested_samples_; }
  uint64_t total_samples() const { return total_samples_; }

 private:
  void Sample();
  double FreeFraction(const std::vector<int>& switches) const;

  // All observation goes through the const view: the only non-const use of
  // network_ outside the constructor is re-arming the sampling timer, which
  // carries an explicit lint:allow(observer-purity).
  const Network& net() const { return *network_; }

  Network* network_;
  Options options_;
  // depths_[node][port] = occupancy after the last enqueue/dequeue there.
  // Host nodes get empty vectors, so their events fall through OnEvent.
  std::vector<std::vector<size_t>> depths_;
  // Precomputed switch neighborhoods. Ordered map: emission paths walk these
  // keyed off switch_ids(), and an ordered container keeps any future
  // iteration deterministic (analyzer rule: determinism-ast).
  std::map<int, std::vector<int>> one_hop_;
  std::map<int, std::vector<int>> two_hop_;

  std::vector<double> one_hop_free_;
  std::vector<double> two_hop_free_;
  std::vector<Snapshot> snapshots_;
  uint64_t congested_samples_ = 0;
  uint64_t total_samples_ = 0;
};

}  // namespace dibs

#endif  // SRC_STATS_BUFFER_MONITOR_H_
