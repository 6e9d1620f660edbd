// Guard negative test: the collapse watchdog must FIRE on unguarded DIBS in
// its pathological regime and must NOT fire when the overload guard is on.
//
// One extreme-qps cell (fig14's breaking regime) runs twice — DCTCP+DIBS
// with only the watchdog observing, and DCTCP+DIBS+guard — and the table
// reports the watchdog verdict, onset time, breaker activity, and goodput
// side by side. With DIBS_GUARD_EXPECT=1 (CI) the bench exits nonzero
// unless the unguarded run collapsed and the guarded run did not: a
// watchdog that never fires, or a guard that no longer prevents the
// collapse it exists for, both fail the pipeline.
//
// The cell runs at kQps = 18000, the first rate where unguarded DIBS
// collapses in-run while the guarded run holds (see EXPERIMENTS.md).
// Knobs: DIBS_GUARD_EXPECT (a boolean knob), DIBS_BENCH_DURATION_MS
// (default 120 here — the watchdog needs enough collapse windows to judge).

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  constexpr int kQps = 18000;
  PrintFigureBanner("Guard negative test",
                    "Collapse watchdog fires unguarded, stays quiet guarded",
                    "bg inter-arrival 120ms, incast degree 40, response 20KB");
  const Time duration = BenchDuration(Time::Millis(120));

  auto watched = [&](ExperimentConfig c) {
    c = Standard(std::move(c), duration);
    c.net.guard.watchdog = true;
    c.qps = kQps;
    c.drain = Time::Millis(400);
    return c;
  };

  SweepSpec spec;
  spec.name = "guard_collapse";
  spec.axes.push_back(SchemeAxis({{"dibs", watched(DibsConfig())},
                                  {"dibs-guard", watched(DibsGuardConfig())}}));
  const std::vector<RunRecord> records = RunBenchSweep(std::move(spec));

  TablePrinter table({"scheme", "collapse", "onset_ms", "qct99_ms", "queries_done",
                      "trips", "sup_drops", "clamp_drops", "sup_ms"});
  table.PrintHeader();
  for (const char* scheme : {"dibs", "dibs-guard"}) {
    const RunRecord& rec = FindRecord(records, {{"scheme", scheme}});
    const ScenarioResult& r = rec.result;
    table.PrintRow({scheme, r.collapse_detected ? "YES" : "-",
                    ResultCell(rec, TablePrinter::Num(r.collapse_onset_ms)),
                    ResultCell(rec, TablePrinter::Num(r.qct99_ms)),
                    ResultCell(rec, TablePrinter::Int(r.queries_completed)),
                    ResultCell(rec, TablePrinter::Int(r.guard_trips)),
                    ResultCell(rec, TablePrinter::Int(r.guard_suppressed_drops)),
                    ResultCell(rec, TablePrinter::Int(r.guard_ttl_clamped_drops)),
                    ResultCell(rec, TablePrinter::Num(r.guard_time_suppressed_ms, 1))});
  }

  if (!env::Flag("DIBS_GUARD_EXPECT", false)) {
    return 0;
  }
  const ScenarioResult& unguarded = FindRecord(records, {{"scheme", "dibs"}}).result;
  const ScenarioResult& guarded =
      FindRecord(records, {{"scheme", "dibs-guard"}}).result;
  bool ok = true;
  if (!unguarded.collapse_detected) {
    std::printf("FAIL: watchdog did not flag the unguarded run at %d qps\n", kQps);
    ok = false;
  }
  if (guarded.collapse_detected) {
    std::printf("FAIL: guarded run still collapsed at %d qps (onset %.2f ms)\n",
                kQps, guarded.collapse_onset_ms);
    ok = false;
  }
  if (guarded.guard_trips == 0) {
    std::printf("FAIL: guarded run never tripped a breaker at %d qps\n", kQps);
    ok = false;
  }
  if (ok) {
    std::printf("guard negative test: unguarded collapses at %.2f ms, guarded "
                "holds (%llu breaker trips)  ->  PASS\n",
                unguarded.collapse_onset_ms,
                static_cast<unsigned long long>(guarded.guard_trips));
  }
  return ok ? 0 : 1;
}
