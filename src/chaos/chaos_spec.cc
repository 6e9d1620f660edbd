#include "src/chaos/chaos_spec.h"

#include <cmath>

#include "src/util/logging.h"

namespace dibs::chaos {

ExperimentConfig ChaosSpec::ToConfig() const {
  ExperimentConfig c =
      detour_policy == "none" ? DctcpConfig() : DibsConfig();

  if (topology == "leaf-spine") {
    c.topology = TopologyKind::kLeafSpine;
  } else if (topology == "linear") {
    c.topology = TopologyKind::kLinear;
  } else {
    DIBS_CHECK(topology == "fat-tree") << "unknown spec topology " << topology;
    c.topology = TopologyKind::kFatTree;
    c.fat_tree_k = fat_tree_k;
    c.oversubscription = oversubscription;
  }

  c.net.switch_buffer_packets = static_cast<size_t>(switch_buffer_packets);
  c.net.ecn_threshold_packets = static_cast<size_t>(ecn_threshold_packets);
  c.net.use_shared_buffer = use_shared_buffer;
  c.net.detour_policy = detour_policy;
  c.net.initial_ttl = static_cast<uint8_t>(initial_ttl);
  c.net.guard.enabled = guard_enabled;
  c.net.guard.adaptive_ttl = guard_adaptive_ttl;
  c.net.guard.watchdog = guard_watchdog;

  c.enable_background = enable_background;
  c.bg_interarrival = Time::Nanos(std::llround(bg_interarrival_ms * 1e6));
  c.enable_query = true;
  c.qps = qps;
  c.incast_degree = incast_degree;
  c.response_bytes = response_bytes;

  c.duration = Time::Nanos(std::llround(duration_ms * 1e6));
  c.drain = Time::Nanos(std::llround(drain_ms * 1e6));
  c.seed = seed;

  for (const fault::FaultEvent& e : faults) {
    switch (e.kind) {
      case fault::FaultKind::kLinkDown:
        c.faults.LinkDown(e.target, e.at);
        break;
      case fault::FaultKind::kLinkUp:
        c.faults.LinkUp(e.target, e.at);
        break;
      case fault::FaultKind::kSwitchCrash:
        c.faults.SwitchCrash(e.target, e.at);
        break;
      case fault::FaultKind::kSwitchRestart:
        c.faults.SwitchRestart(e.target, e.at);
        break;
      case fault::FaultKind::kDegradeLink:
        c.faults.DegradeLink(e.target, e.at, e.loss_probability, e.extra_jitter);
        break;
      case fault::FaultKind::kRestoreLink:
        c.faults.RestoreLink(e.target, e.at);
        break;
    }
  }
  return c;
}

int ChaosSpec::NumHosts() const { return BuildTopology(ToConfig()).num_hosts(); }

double ChaosSpec::Size() const {
  // Each term is scaled so the dimensions the shrinker halves contribute
  // comparably; fault events are weighted heavily because dropping them is
  // the most valuable simplification for a human reading the repro.
  double size = 0;
  size += static_cast<double>(NumHosts());
  size += 10.0 * static_cast<double>(faults.size());
  size += duration_ms;
  size += static_cast<double>(incast_degree);
  size += qps / 100.0;
  size += static_cast<double>(response_bytes) / 4000.0;
  size += enable_background ? 10.0 : 0.0;
  size += use_shared_buffer ? 2.0 : 0.0;
  size += (guard_enabled ? 2.0 : 0.0) + (guard_adaptive_ttl ? 2.0 : 0.0) +
          (guard_watchdog ? 2.0 : 0.0);
  return size;
}

}  // namespace dibs::chaos
