// Experiment configuration: Table 1 (network/TCP defaults) and Table 2
// (parameter sweep ranges) in code form, plus scheme presets.
//
// Table 1 defaults: 1Gbps links, 100-packet switch buffers, MTU 1500,
// minRTO 10ms, initial cwnd 10, fast retransmit disabled under DIBS.
// Table 2 defaults (bold in the paper): background inter-arrival 120ms,
// 300 qps, response size 20KB, incast degree 40, buffer 100, TTL 255,
// no oversubscription.

#ifndef SRC_HARNESS_CONFIG_H_
#define SRC_HARNESS_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/device/network.h"
#include "src/fault/fault_plan.h"
#include "src/sim/time.h"
#include "src/topo/builders.h"
#include "src/trace/trace_config.h"
#include "src/transport/tcp_config.h"

namespace dibs {

enum class TopologyKind : uint8_t {
  kFatTree = 0,
  kEmulabTestbed = 1,
  kLeafSpine = 2,
  kLinear = 3,
  kJellyFish = 4,
};

struct ExperimentConfig {
  // Topology.
  TopologyKind topology = TopologyKind::kFatTree;
  int fat_tree_k = 8;               // 128 hosts (§5.3)
  double oversubscription = 1.0;    // §5.5.4: 1, 4, 9, 16

  // Switch / network (Table 1, §5.3).
  NetworkConfig net;

  // Transport.
  TransportKind transport = TransportKind::kDctcp;
  TcpConfig tcp = TcpConfig::DctcpDefault();
  PfabricConfig pfabric;

  // Background traffic (Table 2 top row).
  bool enable_background = true;
  Time bg_interarrival = Time::Millis(120);

  // Query traffic (Table 2).
  bool enable_query = true;
  double qps = 300;
  int incast_degree = 40;
  uint64_t response_bytes = 20000;

  // Run control. Workloads stop launching at `duration`; the simulation
  // keeps running for `drain` so in-flight queries finish and get counted.
  Time duration = Time::Seconds(1);
  Time drain = Time::Millis(200);
  uint64_t seed = 1;

  // Fault schedule (empty by default = healthy network). Link/switch ids
  // refer to the topology this config builds; sweep axes mutate the plan to
  // make fault intensity a sweepable dimension.
  fault::FaultPlan faults;

  // FabricMonitor sample interval (src/stats): the link and buffer series
  // of Figures 3-5. Zero = off. The monitor schedules nothing, so turning it
  // on adds the series to the result and changes nothing else.
  Time monitor_interval = Time::Zero();

  // Packet-lifecycle tracing (src/trace). Scenario uses it as given; the
  // benches overlay the DIBS_TRACE* environment on it before their sweep
  // starts (bench/bench_util.h). Excluded from the journal's config digest —
  // tracing is observability and never changes simulation results.
  TraceConfig trace;

  // Position of this run in its sweep matrix (-1 outside a sweep). Set by
  // the sweep engine; excluded from the journal's config digest. It names
  // each run's trace files, and lets the env-gated crash hook
  // (DIBS_TEST_CRASH_RUN, see Scenario::Run) target one run
  // deterministically.
  int sweep_run_index = -1;
};

// --- Scheme presets (the lines compared throughout §5) ---

// Plain DCTCP: drop-tail + ECN, fast retransmit on, no detouring.
ExperimentConfig DctcpConfig();

// DCTCP + DIBS (§5.3): random detouring, fast retransmit disabled.
ExperimentConfig DibsConfig();

// DCTCP + DIBS + overload guard (src/guard): DibsConfig plus the per-switch
// circuit breaker, adaptive detour TTL, and collapse watchdog — the
// graceful-degradation line for the fig14 extreme-qps regime. Guard knobs
// live in config.net.guard.
ExperimentConfig DibsGuardConfig();

// DCTCP with effectively infinite buffers ("DCTCP w/ inf", Figures 6/7).
ExperimentConfig InfiniteBufferConfig();

// pFabric (§5.8): 24-packet priority queues, 350us RTO.
ExperimentConfig PfabricExperimentConfig();

// The topology `config` describes, with the default 1 Gbps links (Table 1).
// Scenario runs on it, and fault plans take their link and switch ids from it.
Topology BuildTopology(const ExperimentConfig& config);

}  // namespace dibs

#endif  // SRC_HARNESS_CONFIG_H_
