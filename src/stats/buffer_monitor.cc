#include "src/stats/buffer_monitor.h"

#include <sstream>

#include "src/device/switch_node.h"
#include "src/util/logging.h"
#include "src/util/validation.h"

namespace dibs {

BufferMonitor::BufferMonitor(Network* network, Options options)
    : network_(network), options_(std::move(options)) {
  DIBS_CHECK(options_.interval > Time::Zero());
  depths_.resize(static_cast<size_t>(net().topology().num_nodes()));
  for (int sw : net().switch_ids()) {
    one_hop_[sw] = net().topology().SwitchNeighborhood(sw, 1);
    two_hop_[sw] = net().topology().SwitchNeighborhood(sw, 2);
    depths_[static_cast<size_t>(sw)].resize(net().switch_at(sw).num_ports(), 0);
  }
  network_->Subscribe(this, kKinds);
}

void BufferMonitor::Start() {
  // The monitor is a configured periodic sampler, not a passive trace sink:
  // re-arming its own timer is its one sanctioned mutation of simulator
  // state. The samples themselves never touch the simulated world, so a run
  // with the monitor attached stays bit-identical modulo these timer events,
  // which are part of the experiment's configuration.
  network_->sim().Schedule(options_.interval, [this] { Sample(); });  // lint:allow(observer-purity)
}

double BufferMonitor::FreeFraction(const std::vector<int>& switches) const {
  size_t capacity = 0;
  size_t used = 0;
  for (int sw : switches) {
    const SwitchNode& node = net().switch_at(sw);
    const size_t cap = node.buffer_capacity_packets();
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

void BufferMonitor::Sample() {
  ++total_samples_;

  // DIBS_VALIDATE: the event-driven depth matrix must agree with the queues
  // themselves — a divergence means an enqueue/dequeue path skipped its
  // event.
  if (validate::Enabled()) {
    for (int sw : net().switch_ids()) {
      const SwitchNode& node = net().switch_at(sw);
      for (uint16_t i = 0; i < node.num_ports(); ++i) {
        const size_t actual = node.port(i).queue().size_packets();
        const size_t tracked = depths_[static_cast<size_t>(sw)][i];
        if (actual != tracked) {
          std::ostringstream os;
          os << "switch " << sw << " port " << i << " tracked depth " << tracked
             << " but queue holds " << actual << " packets at " << net().sim().Now();
          validate::Fail("monitor.depth-sync", os.str());
        }
      }
    }
  }

  // Figure 2b snapshots.
  if (!options_.snapshot_switches.empty()) {
    Snapshot snap;
    snap.at = net().sim().Now();
    for (int sw : options_.snapshot_switches) {
      snap.queue_lengths.push_back(depths_[static_cast<size_t>(sw)]);
    }
    snapshots_.push_back(std::move(snap));
  }

  // Figure 5: neighborhood free-buffer fractions around congested switches.
  bool any_congested = false;
  for (int sw : net().switch_ids()) {
    const SwitchNode& node = net().switch_at(sw);
    bool congested = false;
    for (uint16_t i = 0; i < node.num_ports(); ++i) {
      const size_t cap = node.port(i).queue().capacity_packets();
      if (cap == 0) {
        continue;
      }
      const double occ = static_cast<double>(depths_[static_cast<size_t>(sw)][i]) /
                         static_cast<double>(cap);
      if (occ >= options_.congested_fraction) {
        congested = true;
        break;
      }
    }
    if (!congested) {
      continue;
    }
    any_congested = true;
    one_hop_free_.push_back(FreeFraction(one_hop_[sw]));
    two_hop_free_.push_back(FreeFraction(two_hop_[sw]));
  }
  if (any_congested) {
    ++congested_samples_;
  }

  if (net().sim().Now() + options_.interval <= options_.stop_time) {
    // Sanctioned timer re-arm; see the note in Start().
    network_->sim().Schedule(options_.interval, [this] { Sample(); });  // lint:allow(observer-purity)
  }
}

}  // namespace dibs
