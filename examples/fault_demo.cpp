// Fault injection demo: break the fabric under an incast and watch DIBS
// route and detour around the damage.
//
//   $ ./build/examples/fault_demo
//
// A FaultPlan is plain data inside ExperimentConfig: declare WHAT breaks
// WHEN (links flap, switches crash, optics degrade), and the scenario
// compiles it into simulator events. Same seed, same faults, same tables —
// the whole timeline is reproducible.

#include <iostream>

#include "src/fault/fault_plan.h"
#include "src/harness/config.h"
#include "src/harness/scenario.h"

using namespace dibs;

int main() {
  std::cout << "Fault injection: ToR uplink flap + ToR crash during a 40-way incast\n\n";

  for (const bool use_dibs : {false, true}) {
    ExperimentConfig cfg = use_dibs ? DibsConfig() : DctcpConfig();
    cfg.duration = Time::Millis(300);
    cfg.seed = 2024;

    // Resolve targets from the topology the scenario will build — no
    // hard-coded ids. Host 0's ToR loses an uplink twice, then the whole
    // switch crashes and comes back.
    const Topology topo = BuildTopology(cfg);
    const int tor = fault::TorOf(topo, /*h=*/0);
    const int uplink = fault::SwitchFacingLinks(topo, tor).front();

    cfg.faults.LinkFlap(uplink, /*first_down=*/Time::Millis(60), /*down_for=*/Time::Millis(30),
                        /*up_for=*/Time::Millis(30), /*cycles=*/2)
        .SwitchCrash(tor, Time::Millis(200))
        .SwitchRestart(tor, Time::Millis(240));

    const ScenarioResult r = RunScenario(cfg);

    std::cout << (use_dibs ? "DCTCP+DIBS" : "DCTCP     ") << " | 99th QCT " << r.qct99_ms
              << " ms | fault drops " << r.fault_drops << "/" << r.drops << " total | flows "
              << r.fault_flows_recovered << " recovered, " << r.fault_flows_stalled
              << " stalled | drops: " << FormatDropBreakdown(r.drops_by_reason) << "\n";
  }

  std::cout << "\nDead ports drain and blackhole; the live FIB masks them so ECMP re-picks\n"
               "among surviving paths, and DIBS never detours into a down or crashed port.\n"
               "Packets that were already committed to a dead link show up above as\n"
               "fault-* drops — terminal states the conservation ledger accounts for.\n";
  return 0;
}
