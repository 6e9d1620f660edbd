#include "src/stats/fabric_monitor.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/device/host_node.h"
#include "src/device/switch_node.h"
#include "src/util/logging.h"
#include "src/util/validation.h"

namespace dibs {

FabricMonitor::FabricMonitor(Network* network, Time interval,
                             std::vector<int> snapshot_switches)
    : net_(*network),
      interval_(interval),
      next_sample_(interval),
      snapshot_switches_(std::move(snapshot_switches)) {
  DIBS_CHECK(interval_ > Time::Zero());
  depths_.resize(static_cast<size_t>(net_.topology().num_nodes()));
  for (int sw : net_.switch_ids()) {
    const SwitchNode& node = net_.switch_at(sw);
    for (uint16_t i = 0; i < node.num_ports(); ++i) {
      ports_.push_back(&node.port(i));
    }
    one_hop_[sw] = net_.topology().SwitchNeighborhood(sw, 1);
    two_hop_[sw] = net_.topology().SwitchNeighborhood(sw, 2);
    depths_[static_cast<size_t>(sw)].resize(node.num_ports(), 0);
  }
  for (HostId h = 0; h < net_.num_hosts(); ++h) {
    ports_.push_back(&net_.host(h).nic());
  }
  for (const Port* port : ports_) {
    last_bytes_.push_back(port->bytes_sent());
  }
  utilizations_.assign(ports_.size(), 0.0);
  network->Subscribe(this, kKinds);
}

void FabricMonitor::OnEvent(const TraceEvent& e) {
  const bool sampled = SampleThrough(e.at);
  std::vector<size_t>& depths = depths_[static_cast<size_t>(e.node)];
  if (static_cast<size_t>(e.port) < depths.size()) {
    depths[static_cast<size_t>(e.port)] = static_cast<size_t>(e.queue_depth);
  }
  // Checked after the event is applied: the queue has already changed when
  // its event is dispatched.
  if (sampled && validate::Enabled()) {
    CheckDepthSync();
  }
}

void FabricMonitor::Finish() {
  if (SampleThrough(net_.sim().Now()) && validate::Enabled()) {
    CheckDepthSync();
  }
  next_sample_ = Time::Max();
}

bool FabricMonitor::SampleThrough(Time t) {
  bool any = false;
  while (next_sample_ <= t) {
    Sample(next_sample_);
    next_sample_ = next_sample_ + interval_;
    any = true;
  }
  return any;
}

void FabricMonitor::Sample(Time at) {
  SampleLinks();
  SampleBuffers();
  if (!snapshot_switches_.empty()) {
    Snapshot snap;
    snap.at = at;
    for (int sw : snapshot_switches_) {
      snap.queue_lengths.push_back(depths_[static_cast<size_t>(sw)]);
    }
    snapshots_.push_back(std::move(snap));
  }
}

void FabricMonitor::SampleLinks() {
  const double interval_s = interval_.ToSeconds();
  size_t hot = 0;
  double max_util = 0.0;
  for (size_t i = 0; i < ports_.size(); ++i) {
    const uint64_t bytes = ports_[i]->bytes_sent();
    const double delta_bits = static_cast<double>(bytes - last_bytes_[i]) * 8.0;
    last_bytes_[i] = bytes;
    const double util = delta_bits / (static_cast<double>(ports_[i]->rate_bps()) * interval_s);
    utilizations_[i] = util;
    max_util = std::max(max_util, util);
    hot += util >= kHotUtilization ? 1 : 0;
  }
  const auto links = static_cast<double>(ports_.size());
  hot_fractions_.push_back(static_cast<double>(hot) / links);
  size_t rel_hot = 0;
  if (max_util > 0.0) {
    for (double util : utilizations_) {
      rel_hot += util >= 0.5 * max_util ? 1 : 0;
    }
  }
  relative_hot_fractions_.push_back(static_cast<double>(rel_hot) / links);
}

void FabricMonitor::SampleBuffers() {
  for (int sw : net_.switch_ids()) {
    const SwitchNode& node = net_.switch_at(sw);
    bool congested = false;
    for (uint16_t i = 0; i < node.num_ports() && !congested; ++i) {
      const size_t cap = node.port(i).queue().capacity_packets();
      if (cap != 0) {
        congested = static_cast<double>(depths_[static_cast<size_t>(sw)][i]) /
                        static_cast<double>(cap) >=
                    kCongestedFraction;
      }
    }
    if (congested) {
      one_hop_free_.push_back(FreeFraction(one_hop_[sw]));
      two_hop_free_.push_back(FreeFraction(two_hop_[sw]));
    }
  }
}

double FabricMonitor::FreeFraction(const std::vector<int>& switches) const {
  size_t capacity = 0;
  size_t used = 0;
  for (int sw : switches) {
    const size_t cap = net_.switch_at(sw).buffer_capacity_packets();
    if (cap == 0) {
      continue;  // unbounded queues have no meaningful "free fraction"
    }
    capacity += cap;
    for (const size_t depth : depths_[static_cast<size_t>(sw)]) {
      used += depth;
    }
  }
  if (capacity == 0) {
    return 1.0;
  }
  return 1.0 - static_cast<double>(used) / static_cast<double>(capacity);
}

void FabricMonitor::CheckDepthSync() const {
  for (int sw : net_.switch_ids()) {
    const SwitchNode& node = net_.switch_at(sw);
    for (uint16_t i = 0; i < node.num_ports(); ++i) {
      const size_t actual = node.port(i).queue().size_packets();
      const size_t tracked = depths_[static_cast<size_t>(sw)][i];
      if (actual != tracked) {
        std::ostringstream os;
        os << "switch " << sw << " port " << i << " tracked depth " << tracked
           << " but queue holds " << actual << " packets at " << net_.sim().Now();
        validate::Fail("monitor.depth-sync", os.str());
      }
    }
  }
}

}  // namespace dibs
