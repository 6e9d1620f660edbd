// Quickstart: build the paper's network, throw an incast at it, and watch
// DIBS absorb the burst that plain drop-tail would drop.
//
//   $ ./build/examples/quickstart
//
// Walks through the three layers of the public API:
//   1. Topology + Network  — the simulated fabric
//   2. FlowManager         — DCTCP endpoints
//   3. ExperimentConfig / Scenario — the one-call harness the benches use

#include <iostream>

#include "src/harness/config.h"
#include "src/harness/scenario.h"

using namespace dibs;

int main() {
  std::cout << "DIBS quickstart: 40-way incast on a K=8 fat-tree (128 hosts, 1Gbps)\n\n";

  // One knob separates the two runs: the detour policy.
  for (const bool use_dibs : {false, true}) {
    ExperimentConfig cfg = use_dibs ? DibsConfig() : DctcpConfig();

    // Table 1/2 defaults are pre-filled; shrink the run so this demo is
    // instant. 300 queries/s, each: 40 random servers send 20KB responses to
    // one random target. Background traffic from the production distribution
    // fills in around it.
    cfg.duration = Time::Millis(300);
    cfg.seed = 2024;

    const ScenarioResult r = RunScenario(cfg);

    std::cout << (use_dibs ? "DCTCP+DIBS" : "DCTCP     ") << " | 99th QCT "
              << r.qct99_ms << " ms | 99th short-flow FCT " << r.bg_fct99_ms
              << " ms | drops " << r.drops << " | detours " << r.detours << "\n";
  }

  std::cout << "\nDIBS detours excess packets to neighboring switches instead of dropping\n"
               "them, so incast bursts finish without waiting out a 10ms minRTO timeout.\n"
               "Next: examples/detour_trace (Figure 1), examples/incast_study (Figure 6),\n"
               "bench/sec7_topologies (Section 7 policies).\n";
  return 0;
}
