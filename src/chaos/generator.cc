#include "src/chaos/generator.h"

#include <algorithm>
#include <vector>

#include "src/harness/config.h"
#include "src/util/rng.h"

namespace dibs::chaos {
namespace {

// SplitMix64 finalizer: decorrelates (master_seed, index) pairs so case i
// and case i+1 share no low-bit structure through mt19937_64 seeding.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Appends a coherent fault episode (down/up, crash/restart, degrade/restore
// pairs, or a flap burst) against a random ToR's neighborhood. Times are in
// whole microseconds so the spec codec round-trips them exactly.
void AddFaultEpisode(Rng& rng, const Topology& topo, const ChaosSpec& s,
                     fault::FaultPlan* plan) {
  const int host =
      static_cast<int>(rng.UniformInt(0, topo.num_hosts() - 1));
  const int tor = fault::TorOf(topo, host);
  const std::vector<int> uplinks = fault::SwitchFacingLinks(topo, tor);

  const int64_t window_us =
      std::max<int64_t>(1, static_cast<int64_t>(s.duration_ms * 1000));
  const Time start = Time::Micros(rng.UniformInt(0, window_us - 1));
  const Time hold = Time::Micros(rng.UniformInt(200, window_us));

  switch (rng.UniformInt(0, 3)) {
    case 0: {  // link down, usually back up before the run ends
      if (uplinks.empty()) {
        return;
      }
      const int link = uplinks[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(uplinks.size()) - 1))];
      plan->LinkDown(link, start);
      if (rng.Bernoulli(0.8)) {
        plan->LinkUp(link, start + hold);
      }
      break;
    }
    case 1: {  // flap burst
      if (uplinks.empty()) {
        return;
      }
      const int link = uplinks[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(uplinks.size()) - 1))];
      plan->LinkFlap(link, start, Time::Micros(rng.UniformInt(100, 2000)),
                     Time::Micros(rng.UniformInt(100, 2000)),
                     static_cast<int>(rng.UniformInt(1, 3)));
      break;
    }
    case 2: {  // switch crash, usually restarted
      plan->SwitchCrash(tor, start);
      if (rng.Bernoulli(0.8)) {
        plan->SwitchRestart(tor, start + hold);
      }
      break;
    }
    default: {  // lossy degrade, usually restored
      if (uplinks.empty()) {
        return;
      }
      const int link = uplinks[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(uplinks.size()) - 1))];
      plan->DegradeLink(link, start, rng.UniformDouble(0.01, 0.3),
                        Time::Micros(rng.UniformInt(0, 50)));
      if (rng.Bernoulli(0.8)) {
        plan->RestoreLink(link, start + hold);
      }
      break;
    }
  }
}

}  // namespace

ChaosSpec GenerateSpec(uint64_t master_seed, int index) {
  Rng rng(Mix(master_seed) ^ Mix(static_cast<uint64_t>(index) * 2 + 1));

  ChaosSpec s;
  s.case_index = index;
  s.seed = rng.UniformInt(1, 1 << 30);

  // Topology: mostly small fat-trees (the shape DIBS targets), occasionally
  // the degenerate stress shapes.
  const int topo_draw = static_cast<int>(rng.UniformInt(0, 9));
  if (topo_draw < 7) {
    s.topology = "fat-tree";
    s.fat_tree_k = rng.Bernoulli(0.75) ? 4 : 6;
    s.oversubscription = rng.Bernoulli(0.3) ? 4.0 : 1.0;
  } else if (topo_draw < 9) {
    s.topology = "leaf-spine";
  } else {
    s.topology = "linear";
  }

  // Switch knobs: small buffers keep detour pressure high at low cost.
  s.switch_buffer_packets = static_cast<int>(rng.UniformInt(10, 120));
  s.ecn_threshold_packets = std::min(
      s.switch_buffer_packets, static_cast<int>(rng.UniformInt(4, 30)));
  s.use_shared_buffer = rng.Bernoulli(0.15);

  const char* kPolicies[] = {"random", "random", "random", "load-aware", "none"};
  s.detour_policy = kPolicies[rng.UniformInt(0, 4)];
  s.initial_ttl = rng.Bernoulli(0.3)
                      ? static_cast<int>(rng.UniformInt(8, 32))
                      : 255;

  s.guard_enabled = rng.Bernoulli(0.3);
  s.guard_adaptive_ttl = s.guard_enabled && rng.Bernoulli(0.5);
  s.guard_watchdog = rng.Bernoulli(0.25);

  // Workload: short windows, incast bursts sized to the topology.
  s.enable_background = rng.Bernoulli(0.5);
  s.bg_interarrival_ms =
      static_cast<double>(rng.UniformInt(2, 40));  // whole ms
  s.qps = static_cast<double>(rng.UniformInt(100, 1200));
  s.incast_degree = static_cast<int>(
      rng.UniformInt(2, std::min(24, s.NumHosts() - 1)));
  s.response_bytes = static_cast<uint64_t>(rng.UniformInt(2, 40)) * 1000;

  s.duration_ms = static_cast<double>(rng.UniformInt(3, 12));  // whole ms
  s.drain_ms = 80;

  // Fault schedule: 0-3 episodes drawn against the concrete topology.
  const int episodes = static_cast<int>(rng.UniformInt(0, 3));
  if (episodes > 0) {
    const Topology topo = BuildTopology(s.ToConfig());
    fault::FaultPlan plan;
    for (int e = 0; e < episodes; ++e) {
      AddFaultEpisode(rng, topo, s, &plan);
    }
    s.faults = plan.events();
  }
  return s;
}

}  // namespace dibs::chaos
