// Shared plumbing for the figure benches: standard run durations, sweep
// execution through the src/exp engine, the DCTCP-vs-DIBS comparison row,
// and CDF printing.
//
// Durations are scaled down from the paper's runs so that the whole bench
// suite finishes in minutes on one machine; EXPERIMENTS.md records how the
// measured shapes compare to the paper's. Environment knobs:
//   DIBS_BENCH_DURATION_MS  simulated window per figure point
//   DIBS_BENCH_SEED         base seed for every run (default 1)
//   DIBS_JOBS               sweep worker threads (default: hardware cores)
//   DIBS_RUN_TIMEOUT_SEC    per-run wall-clock cap (default: none)
//   DIBS_SWEEP_JSONL        append every RunRecord as JSONL to this file
//   DIBS_SWEEP_CSV          append every RunRecord as CSV to this file
//   DIBS_REQUIRE_OK         once the sweep finishes (retries, isolation and
//                           all), exit 1 with a status tally before any
//                           table prints if any row is not ok; the engine
//                           has already logged each such row. CI sets it so
//                           DIBS_VALIDATE violations inside sweep runs
//                           (surfaced as failed records) fail the pipeline
//   DIBS_JOURNAL            append-only run journal; with DIBS_RESUME=1 a
//                           restarted bench skips rows journaled as ok
//   DIBS_ISOLATE            "process" forks every run (crash containment +
//                           hard watchdog); default in-process threads
//   DIBS_MAX_ATTEMPTS       retries per failed/timeout/crashed row
//   DIBS_RETRY_BACKOFF_MS   initial retry backoff (exponential, bounded)
//   DIBS_WATCHDOG_GRACE_SEC SIGKILL slack past DIBS_RUN_TIMEOUT_SEC
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
#include "src/util/logging.h"

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

inline SweepOptions BenchSweepOptions() {
  SweepOptions opts;
  opts.run_timeout_sec = env::Double("DIBS_RUN_TIMEOUT_SEC", opts.run_timeout_sec, 0, 86400);
  return opts;
}

// Runs an explicit run list through the sweep engine with the bench-wide
// options and optional JSONL/CSV export, returning records in list order.
inline std::vector<RunRecord> RunBenchRuns(const std::string& name,
                                           std::vector<RunSpec> runs) {
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
                     << s.timeout << ", crashed " << s.crashed << ", quarantined "
                     << s.quarantined << "); exiting nonzero";
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
// completed, an explicit "<failed>"/"<timeout>"/"<crashed>"/"<quarantined>"
// marker otherwise — degraded sweeps render every row, never silently print
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

// The standard two-scheme comparison row most figures print.
struct ComparisonRow {
  ScenarioResult dctcp;
  ScenarioResult dibs;
};

// Runs N (dctcp, dibs) config pairs through the engine — both schemes of all
// rows execute concurrently — and returns one ComparisonRow per pair.
inline std::vector<ComparisonRow> CompareSchemesSweep(
    const std::string& name,
    const std::vector<std::pair<ExperimentConfig, ExperimentConfig>>& pairs) {
  std::vector<RunSpec> runs;
  runs.reserve(pairs.size() * 2);
  for (size_t i = 0; i < pairs.size(); ++i) {
    for (const auto& [scheme, config] :
         {std::pair<std::string, const ExperimentConfig&>{"dctcp", pairs[i].first},
          std::pair<std::string, const ExperimentConfig&>{"dibs", pairs[i].second}}) {
      RunSpec run;
      run.config = config;
      run.points = {{"scheme", scheme}, {"pair", std::to_string(i)}};
      runs.push_back(std::move(run));
    }
  }
  const std::vector<RunRecord> records = RunBenchRuns(name, std::move(runs));
  std::vector<ComparisonRow> rows;
  rows.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    rows.push_back({records[2 * i].result, records[2 * i + 1].result});
  }
  return rows;
}

inline ComparisonRow CompareSchemes(ExperimentConfig base_dctcp, ExperimentConfig base_dibs) {
  return CompareSchemesSweep("compare", {{std::move(base_dctcp), std::move(base_dibs)}})
      .front();
}

}  // namespace bench
}  // namespace dibs

#endif  // BENCH_BENCH_UTIL_H_
