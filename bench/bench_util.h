// Shared plumbing for the figure benches: standard run durations, sweep
// execution through the src/exp engine, table cells read from its records,
// and CDF printing.
//
// Durations are scaled down from the paper's runs so that the whole bench
// suite finishes in minutes on one machine; EXPERIMENTS.md records how the
// measured shapes compare to the paper's. Every other bench runs its
// Scenarios through RunBenchRuns, so all the knobs below reach it; fig02,
// fig03, fig06 and sec56 drive the simulator by hand, and of these knobs
// fig03 and sec56 read DIBS_BENCH_DURATION_MS and the trace knobs alone.
// This file is the one place the sweep and trace knobs are read: src/exp
// takes plain SweepOptions and Scenario takes config.trace as given, so
// neither reads the environment. Environment knobs:
//   DIBS_BENCH_DURATION_MS  simulated window per figure point
//   DIBS_BENCH_SEED         base seed for every run (default 1)
//   DIBS_JOBS               sweep worker threads (default: hardware cores)
//   DIBS_RUN_TIMEOUT_SEC    per-run wall-clock cap (default: none)
//   DIBS_SWEEP_JSONL        append every RunRecord as JSONL to this file
//   DIBS_SWEEP_CSV          append every RunRecord as CSV to this file
//   DIBS_REQUIRE_OK         once the sweep finishes (isolation and all),
//                           exit 1 with a status tally before any table
//                           prints if any row is not ok; the engine has
//                           already logged each such row. CI sets it so
//                           DIBS_VALIDATE violations inside sweep runs
//                           (surfaced as failed records) fail the pipeline
//   DIBS_JOURNAL            append-only run journal; with DIBS_RESUME=1 a
//                           restarted bench skips rows journaled as ok
//   DIBS_ISOLATE            "process" forks every run (crash containment +
//                           hard watchdog); default "thread", in-process
//   DIBS_TRACE*             tracing for every run (ApplyTraceEnv in
//                           src/trace/trace_config.h)
// (see EXPERIMENTS.md "Resumable sweeps")

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/util/env.h"
#include "src/exp/result_sink.h"
#include "src/exp/sweep_engine.h"
#include "src/exp/sweep_spec.h"
#include "src/harness/config.h"
#include "src/harness/scenario.h"
#include "src/harness/table.h"
#include "src/trace/trace_config.h"
#include "src/util/logging.h"
#include "src/util/validation.h"

namespace dibs {
namespace bench {

// Default simulated duration for one figure point.
inline Time BenchDuration(Time fallback = Time::Millis(400)) {
  return Time::Millis(env::Int("DIBS_BENCH_DURATION_MS",
                               static_cast<int64_t>(fallback.ToMillis()), 1,
                               86400000));
}

// Base seed for every figure run; replication r of a sweep uses seed + r.
inline uint64_t BenchSeed() {
  return static_cast<uint64_t>(env::Int("DIBS_BENCH_SEED", 1, 0));
}

// Applies the shared run-control settings to a preset config.
inline ExperimentConfig Standard(ExperimentConfig c, Time duration) {
  c.duration = duration;
  c.drain = Time::Millis(150);
  c.seed = BenchSeed();
  return c;
}

// The sweep engine's options from the sweep knobs above.
inline SweepOptions BenchSweepOptions() {
  SweepOptions opts;
  opts.jobs = static_cast<int>(env::Int("DIBS_JOBS", opts.jobs, 0, 4096));
  opts.run_timeout_sec = env::Double("DIBS_RUN_TIMEOUT_SEC", opts.run_timeout_sec, 0, 86400);
  if (env::OneOf("DIBS_ISOLATE", "thread", {"thread", "process"}) == "process") {
    opts.isolate = IsolationMode::kProcess;
  }
  if (const char* path = env::Raw("DIBS_JOURNAL"); path != nullptr) {
    opts.journal_path = path;
  }
  opts.resume = env::Flag("DIBS_RESUME", opts.resume);
  // Runs read DIBS_VALIDATE; parsing it here makes a typo fail the bench
  // before any run instead of failing every run.
  validate::Enabled();
  return opts;
}

// One entry of an explicit run list, labelled by its coordinates.
inline RunSpec BenchRun(ExperimentConfig config, std::vector<AxisPoint> points) {
  RunSpec run;
  run.config = std::move(config);
  run.points = std::move(points);
  return run;
}

// Runs an explicit run list through the sweep engine with the bench-wide
// options and optional JSONL/CSV export, returning records in list order.
inline std::vector<RunRecord> RunBenchRuns(const std::string& name,
                                           std::vector<RunSpec> runs) {
  // Read before the first run, so a mistyped trace knob ends the bench
  // here instead of failing every run.
  for (RunSpec& run : runs) {
    run.config.trace = ApplyTraceEnv(run.config.trace);
  }
  std::vector<std::unique_ptr<ResultSink>> owned;
  std::vector<ResultSink*> sinks;
  std::ofstream jsonl_file;
  std::ofstream csv_file;
  if (const char* path = std::getenv("DIBS_SWEEP_JSONL"); path != nullptr) {
    jsonl_file.open(path, std::ios::app);
    owned.push_back(std::make_unique<JsonlSink>(jsonl_file));
    sinks.push_back(owned.back().get());
  }
  if (const char* path = std::getenv("DIBS_SWEEP_CSV"); path != nullptr) {
    csv_file.open(path, std::ios::app);
    owned.push_back(std::make_unique<CsvSink>(csv_file));
    sinks.push_back(owned.back().get());
  }
  MultiSink multi(std::move(sinks));
  SweepEngine engine(BenchSweepOptions());
  std::vector<RunRecord> records = engine.RunAll(name, std::move(runs), &multi);
  const SweepSummary& s = engine.summary();
  if (env::Flag("DIBS_REQUIRE_OK", false) && !s.AllOk()) {
    DIBS_LOG(kError) << "DIBS_REQUIRE_OK: sweep '" << name << "' finished with " << s.ok
                     << "/" << s.total << " ok (failed " << s.failed << ", timeout "
                     << s.timeout << ", crashed " << s.crashed << "); exiting nonzero";
    std::exit(1);
  }
  return records;
}

// Expands a declarative spec (applying the bench seed) and runs it.
inline std::vector<RunRecord> RunBenchSweep(SweepSpec spec) {
  spec.seed = BenchSeed();
  return RunBenchRuns(spec.name, spec.Expand());
}

// The usual first axis: scheme presets replacing the whole config.
inline SweepAxis SchemeAxis(std::vector<std::pair<std::string, ExperimentConfig>> schemes) {
  SweepAxis axis;
  axis.name = "scheme";
  for (auto& [label, config] : schemes) {
    axis.values.push_back({label, [config](ExperimentConfig& c) { c = config; }});
  }
  return axis;
}

// Table cell for a value computed from `rec.result`: the value when the run
// completed, an explicit "<failed>"/"<timeout>"/"<crashed>" marker
// otherwise — degraded sweeps render every row, never silently print
// a zeroed result as if it were real data.
inline std::string ResultCell(const RunRecord& rec, std::string value) {
  if (rec.status == RunStatus::kOk) {
    return value;
  }
  return "<" + std::string(RunStatusName(rec.status)) + ">";
}

// First record whose coordinates include every given (axis, value) pair.
inline const RunRecord& FindRecord(const std::vector<RunRecord>& records,
                                   const std::vector<AxisPoint>& match) {
  for (const RunRecord& r : records) {
    bool all = true;
    for (const AxisPoint& want : match) {
      bool found = false;
      for (const AxisPoint& have : r.points) {
        if (have == want) {
          found = true;
          break;
        }
      }
      if (!found) {
        all = false;
        break;
      }
    }
    if (all) {
      return r;
    }
  }
  DIBS_LOG(kFatal) << "no sweep record matches the requested axis values";
  return records.front();  // unreachable
}

// Prints a (value, cumulative fraction) CDF as rows.
inline void PrintCdf(const std::string& series_name,
                     const std::vector<std::pair<double, double>>& cdf,
                     const std::string& value_label) {
  TablePrinter table({"series", value_label, "cum_frac"}, {24, 0, 0});
  table.PrintHeader();
  for (const auto& [value, frac] : cdf) {
    table.PrintRow({series_name, TablePrinter::Num(value, 4), TablePrinter::Num(frac, 3)});
  }
}

}  // namespace bench
}  // namespace dibs

#endif  // BENCH_BENCH_UTIL_H_
