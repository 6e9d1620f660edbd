// Resilience: DCTCP vs DCTCP+DIBS vs DCTCP+DIBS+guard under injected
// failures.
//
// A 40-degree incast (Table 2 defaults) runs while the fault axis breaks the
// fabric around host 0's ToR: a flapping uplink, a lossy uplink, or a full
// ToR crash-and-restart. The fault plan is data inside the ExperimentConfig,
// so fault intensity is just another sweep axis and the whole matrix runs
// through the deterministic sweep engine — same seed, same tables, any
// DIBS_JOBS. Reported per cell: 99th QCT, fault-attributed drops, the full
// drop-reason breakdown, fault-touched flows recovered vs stalled, and the
// slowest repair-to-delivery recovery window.

#include "bench/bench_util.h"
#include "src/fault/fault_plan.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Resilience", "Fault injection around host 0's ToR",
                    "bg inter-arrival 120ms, 300 qps, response 20KB, degree 40");
  const Time duration = BenchDuration();

  // Resolve fault targets against the same topology every run builds (the
  // scheme presets share Table 1/2 topology parameters).
  const Topology topo = BuildTopology(Standard(DibsConfig(), duration));
  const int tor = fault::TorOf(topo, /*h=*/0);
  const std::vector<int> uplinks = fault::SwitchFacingLinks(topo, tor);
  DIBS_CHECK(!uplinks.empty()) << "ToR has no uplinks";
  const int uplink = uplinks.front();

  SweepSpec spec;
  spec.name = "resilience";
  // The guarded variant runs the same fault matrix: faults that push the
  // fabric into a detour storm (flaps, crashes) should trip breakers near
  // the failure instead of letting bounced detours amplify it.
  spec.axes.push_back(SchemeAxis({{"dctcp", Standard(DctcpConfig(), duration)},
                                  {"dibs", Standard(DibsConfig(), duration)},
                                  {"dibs-guard", Standard(DibsGuardConfig(), duration)}}));
  SweepAxis fault_axis;
  fault_axis.name = "fault";
  fault_axis.values.push_back({"healthy", [](ExperimentConfig&) {}});
  fault_axis.values.push_back({"uplink-flap", [=](ExperimentConfig& c) {
                                 // Two down/up cycles starting 1/5 into the
                                 // run, each down and up for duration/10.
                                 c.faults.LinkFlap(uplink, duration / 5, duration / 10,
                                                   duration / 10, /*cycles=*/2);
                               }});
  fault_axis.values.push_back({"uplink-lossy", [=](ExperimentConfig& c) {
                                 c.faults
                                     .DegradeLink(uplink, duration / 5,
                                                  /*loss_probability=*/0.05,
                                                  /*extra_jitter=*/Time::Micros(20))
                                     .RestoreLink(uplink, (duration * 4) / 5);
                               }});
  fault_axis.values.push_back({"tor-crash", [=](ExperimentConfig& c) {
                                 c.faults.SwitchCrash(tor, (duration * 2) / 5)
                                     .SwitchRestart(tor, (duration * 7) / 10);
                               }});
  spec.axes.push_back(fault_axis);

  const std::vector<RunRecord> records = RunBenchSweep(std::move(spec));

  TablePrinter table({"fault", "scheme", "qct99_ms", "fault_drops", "flows_recovered",
                      "flows_stalled", "recovery_ms_max", "drops_by_reason"},
                     {14, 12, 0, 0, 0, 0, 0, 66});
  table.PrintHeader();
  for (const char* fault : {"healthy", "uplink-flap", "uplink-lossy", "tor-crash"}) {
    for (const char* scheme : {"dctcp", "dibs", "dibs-guard"}) {
      const RunRecord& rec =
          FindRecord(records, {{"scheme", scheme}, {"fault", fault}});
      const ScenarioResult& r = rec.result;
      table.PrintRow({fault, scheme, ResultCell(rec, TablePrinter::Num(r.qct99_ms)),
                      ResultCell(rec, TablePrinter::Int(r.fault_drops)),
                      ResultCell(rec, TablePrinter::Int(r.fault_flows_recovered)),
                      ResultCell(rec, TablePrinter::Int(r.fault_flows_stalled)),
                      ResultCell(rec, TablePrinter::Num(r.fault_recovery_ms_max)),
                      ResultCell(rec, FormatDropBreakdown(r.drops_by_reason))});
    }
  }
  return 0;
}
