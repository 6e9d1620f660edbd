#include "src/stats/link_monitor.h"

#include <algorithm>

#include "src/device/host_node.h"
#include "src/device/switch_node.h"
#include "src/util/logging.h"

namespace dibs {

LinkMonitor::LinkMonitor(Network* network, Options options)
    : network_(network), options_(options) {
  DIBS_CHECK(options_.interval > Time::Zero());
  for (int sw : network_->switch_ids()) {
    SwitchNode& node = network_->switch_at(sw);
    for (uint16_t i = 0; i < node.num_ports(); ++i) {
      if (!options_.include_host_links && !node.port(i).peer_is_switch()) {
        continue;
      }
      ports_.push_back(&node.port(i));
      owners_.push_back(sw);
    }
  }
  if (options_.include_host_links) {
    for (HostId h = 0; h < network_->num_hosts(); ++h) {
      ports_.push_back(&network_->host(h).nic());
      owners_.push_back(network_->topology().host_node(h));
    }
  }
  last_bytes_.assign(ports_.size(), 0);
  last_utilizations_.assign(ports_.size(), 0.0);
}

void LinkMonitor::Start() {
  for (size_t i = 0; i < ports_.size(); ++i) {
    last_bytes_[i] = ports_[i]->bytes_sent();
  }
  network_->sim().Schedule(options_.interval, [this] { Sample(); });
}

void LinkMonitor::Sample() {
  const double interval_s = options_.interval.ToSeconds();
  size_t hot = 0;
  double max_util = 0.0;
  last_hot_links_.clear();
  for (size_t i = 0; i < ports_.size(); ++i) {
    const uint64_t bytes = ports_[i]->bytes_sent();
    const double delta_bits = static_cast<double>(bytes - last_bytes_[i]) * 8.0;
    last_bytes_[i] = bytes;
    const double util = delta_bits / (static_cast<double>(ports_[i]->rate_bps()) * interval_s);
    last_utilizations_[i] = util;
    max_util = std::max(max_util, util);
    if (util >= options_.hot_threshold) {
      ++hot;
      last_hot_links_.push_back(i);
    }
  }
  hot_fractions_.push_back(static_cast<double>(hot) / static_cast<double>(ports_.size()));

  // Flyways-style relative definition: >= 50% of the hottest link's load.
  size_t rel_hot = 0;
  if (max_util > 0.0) {
    for (double util : last_utilizations_) {
      if (util >= 0.5 * max_util) {
        ++rel_hot;
      }
    }
  }
  relative_hot_fractions_.push_back(static_cast<double>(rel_hot) /
                                    static_cast<double>(ports_.size()));

  if (network_->sim().Now() + options_.interval <= options_.stop_time) {
    network_->sim().Schedule(options_.interval, [this] { Sample(); });
  }
}

}  // namespace dibs
