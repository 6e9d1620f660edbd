// Periodic link-utilization sampler for the hot-link analysis (Figures 3/4).
//
// Every `interval` the monitor reads each directed link's cumulative transmit
// byte counter, converts the delta to utilization, and records the fraction
// of links at or above the hotness threshold (90% for Figure 4; 50% of the
// max-loaded link for the Figure-3-style view). The per-sample hot fractions
// form the "fraction of time" CDFs the paper plots.

#ifndef SRC_STATS_LINK_MONITOR_H_
#define SRC_STATS_LINK_MONITOR_H_

#include <vector>

#include "src/device/network.h"
#include "src/device/port.h"
#include "src/sim/simulator.h"

namespace dibs {

class LinkMonitor {
 public:
  struct Options {
    Time interval = Time::Millis(1);
    double hot_threshold = 0.9;  // Figure 4 uses >= 90% utilization
    bool include_host_links = true;
    Time stop_time = Time::Max();  // stop sampling (and rescheduling) after this
  };

  LinkMonitor(Network* network, Options options);

  // Begins sampling; continues until the simulation ends.
  void Start();

  // One entry per sample: fraction of directed links that were "hot".
  const std::vector<double>& hot_fractions() const { return hot_fractions_; }

  // Per-sample fraction of links with utilization >= 50% of that sample's
  // most-utilized link (the Flyways/Figure-3 definition of "hot").
  const std::vector<double>& relative_hot_fractions() const { return relative_hot_fractions_; }

  // Directed-link utilizations of the most recent sample.
  const std::vector<double>& last_utilizations() const { return last_utilizations_; }

  // Indices (into the monitored port list) of hot links in the last sample.
  const std::vector<size_t>& last_hot_links() const { return last_hot_links_; }

  // Switch node owning monitored port i (and the port's owning side).
  int port_owner(size_t i) const { return owners_[i]; }

  size_t num_monitored_links() const { return ports_.size(); }

 private:
  void Sample();

  Network* network_;
  Options options_;
  std::vector<Port*> ports_;      // every directed link (each port = one direction)
  std::vector<int> owners_;       // node id owning each port
  std::vector<uint64_t> last_bytes_;
  std::vector<double> last_utilizations_;
  std::vector<size_t> last_hot_links_;
  std::vector<double> hot_fractions_;
  std::vector<double> relative_hot_fractions_;
};

}  // namespace dibs

#endif  // SRC_STATS_LINK_MONITOR_H_
