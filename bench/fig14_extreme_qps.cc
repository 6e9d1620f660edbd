// Figure 14: where DIBS breaks — extreme query arrival rates (6000-14000
// qps, degree 40, 20KB). Paper result: beyond ~10000 qps detoured packets
// cannot leave the network before new bursts arrive; queues build everywhere
// and DIBS's 99th QCT blows past DCTCP's. Below that, DIBS still wins.
//
// This bench also carries the overload-guard acceptance row: a third scheme
// (DCTCP+DIBS+guard) runs the same sweep with the per-switch circuit
// breaker, adaptive detour TTL, and collapse watchdog enabled. The watchdog
// alone (pure observation) is switched on for the unguarded schemes too, so
// the table can show WHERE unguarded DIBS collapses in-run — and that the
// guarded scheme, at that same qps, neither collapses nor surrenders the
// goodput it held before the overload point.

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Figure 14", "Extreme query intensity (where DIBS breaks)",
                    "bg inter-arrival 120ms, incast degree 40, response 20KB");
  // Extreme rates are ~30x the default load: keep the simulated window short
  // — but long enough for the collapse watchdog to judge (10ms windows, peak
  // then three consecutive windows below half of it; the unguarded onset
  // lands around t=90ms at 18000 qps). The axis stops at 18000: that is the
  // detour-amplified collapse band — by 20000 qps even detour-free DCTCP
  // collapses in-run, which measures raw overload, not DIBS's breaking
  // point.
  const Time duration = BenchDuration(Time::Millis(120));
  const std::vector<int> rates = {6000, 8000, 10000, 12000, 14000, 16000, 18000};

  // The watchdog observes every scheme (it cannot change results); only the
  // guard scheme arms the breaker and the adaptive TTL clamp.
  auto watched = [&](ExperimentConfig c) {
    c = Standard(std::move(c), duration);
    c.net.guard.watchdog = true;
    return c;
  };

  SweepSpec spec;
  spec.name = "fig14";
  spec.axes.push_back(SchemeAxis({{"dctcp", watched(DctcpConfig())},
                                  {"dibs", watched(DibsConfig())},
                                  {"dibs-guard", watched(DibsGuardConfig())}}));
  spec.axes.push_back(SweepAxis::Of<int>("qps", rates, [](ExperimentConfig& c, int qps) {
    c.qps = qps;
    // Let in-flight queries finish: at these rates queues drain slowly.
    c.drain = Time::Millis(400);
  }));

  const std::vector<RunRecord> records = RunBenchSweep(std::move(spec));

  // flw_* is goodput in completed-work terms (flows finished): deep in
  // overload the downlinks stay saturated, so raw delivered packets cannot
  // show the collapse — flow completions are what stall.
  TablePrinter table({"qps", "qct99_dctcp_ms", "qct99_dibs_ms", "qct99_guard_ms",
                      "flw_dibs", "flw_guard", "clps_dibs", "clps_guard",
                      "trips", "sup_ms"});
  table.PrintHeader();
  for (int qps : rates) {
    const std::string q = std::to_string(qps);
    const RunRecord& dctcp = FindRecord(records, {{"scheme", "dctcp"}, {"qps", q}});
    const RunRecord& dibs = FindRecord(records, {{"scheme", "dibs"}, {"qps", q}});
    const RunRecord& guard = FindRecord(records, {{"scheme", "dibs-guard"}, {"qps", q}});
    table.PrintRow({TablePrinter::Int(static_cast<uint64_t>(qps)),
                    ResultCell(dctcp, TablePrinter::Num(dctcp.result.qct99_ms)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.qct99_ms)),
                    ResultCell(guard, TablePrinter::Num(guard.result.qct99_ms)),
                    ResultCell(dibs, TablePrinter::Int(dibs.result.flows_completed)),
                    ResultCell(guard, TablePrinter::Int(guard.result.flows_completed)),
                    ResultCell(dibs, dibs.result.collapse_detected ? "YES" : "-"),
                    ResultCell(guard, guard.result.collapse_detected ? "YES" : "-"),
                    ResultCell(guard, TablePrinter::Int(guard.result.guard_trips)),
                    ResultCell(guard,
                               TablePrinter::Num(guard.result.guard_time_suppressed_ms, 1))});
  }

  // Acceptance row: at the highest qps where unguarded DIBS collapsed in-run,
  // the guarded scheme must sustain >= 90% of the goodput (completed flows)
  // it held at the last pre-overload point — the highest qps where unguarded
  // DIBS stayed healthy. A row that did not finish ok has no result to read,
  // so the row scores nothing.
  const auto not_ok = [](const RunRecord& rec) {
    if (rec.status == RunStatus::kOk) {
      return false;
    }
    std::printf("\nguard acceptance: the %s run at %s qps is %s; nothing to score\n",
                rec.points[0].value.c_str(), rec.points[1].value.c_str(),
                RunStatusName(rec.status));
    return true;
  };
  int collapse_qps = 0;
  int pre_overload_qps = 0;
  for (int qps : rates) {
    const RunRecord& dibs =
        FindRecord(records, {{"scheme", "dibs"}, {"qps", std::to_string(qps)}});
    if (not_ok(dibs)) {
      return 0;
    }
    if (dibs.result.collapse_detected) {
      collapse_qps = qps;
    } else if (collapse_qps == 0) {
      pre_overload_qps = qps;
    }
  }
  if (collapse_qps == 0) {
    std::printf("\nguard acceptance: unguarded DIBS never collapsed in-run at these "
                "rates; no retention row to score\n");
    return 0;
  }
  if (pre_overload_qps == 0) {
    pre_overload_qps = rates.front();
  }
  const RunRecord& guard_at_collapse = FindRecord(
      records, {{"scheme", "dibs-guard"}, {"qps", std::to_string(collapse_qps)}});
  const RunRecord& guard_pre = FindRecord(
      records, {{"scheme", "dibs-guard"}, {"qps", std::to_string(pre_overload_qps)}});
  if (not_ok(guard_at_collapse) || not_ok(guard_pre)) {
    return 0;
  }
  const double retention =
      guard_pre.result.flows_completed == 0
          ? 0.0
          : static_cast<double>(guard_at_collapse.result.flows_completed) /
                static_cast<double>(guard_pre.result.flows_completed);
  std::printf("\nguard acceptance: unguarded DIBS collapses at %d qps "
              "(pre-overload %d qps); guarded goodput retention %.1f%% "
              "(%llu vs %llu flows completed), guarded collapse: %s  ->  %s\n",
              collapse_qps, pre_overload_qps, retention * 100.0,
              static_cast<unsigned long long>(guard_at_collapse.result.flows_completed),
              static_cast<unsigned long long>(guard_pre.result.flows_completed),
              guard_at_collapse.result.collapse_detected ? "YES" : "no",
              retention >= 0.9 && !guard_at_collapse.result.collapse_detected
                  ? "PASS (>=90% sustained, no collapse)"
                  : "FAIL");
  return 0;
}
