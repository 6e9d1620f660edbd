// The unit of work and unit of result for the sweep engine: a RunSpec is one
// expanded point of a SweepSpec's parameter matrix; a RunRecord is what the
// engine hands to ResultSinks for it — the full ScenarioResult plus run
// metadata (axis coordinates, seed, status, wall time, events/sec).

#ifndef SRC_EXP_RUN_RECORD_H_
#define SRC_EXP_RUN_RECORD_H_

#include <functional>
#include <string>
#include <vector>

#include "src/harness/config.h"
#include "src/harness/scenario.h"

namespace dibs {

enum class RunStatus : uint8_t {
  kOk = 0,
  kFailed = 1,   // the run threw; RunRecord::error holds what()
  kTimeout = 2,  // wall-clock deadline / event budget / hard watchdog kill
  // Only reachable with process isolation (IsolationMode::kProcess): the child
  // died by signal or exited without reporting a record. Without isolation
  // the same defect takes down the whole sweep process.
  kCrashed = 3,
};

const char* RunStatusName(RunStatus status);

// One coordinate of a run in the sweep matrix, e.g. {"buffer_pkts", "100"}.
struct AxisPoint {
  std::string axis;
  std::string value;

  friend bool operator==(const AxisPoint&, const AxisPoint&) = default;
};

struct RunSpec {
  int index = 0;  // position in the expanded matrix; records keep this order
  ExperimentConfig config;
  std::vector<AxisPoint> points;
  int replication = 0;

  // Test hook: replaces the default "build a Scenario, Run(), return the
  // result" body. Exceptions it throws are captured like real run failures.
  std::function<ScenarioResult(const ExperimentConfig&)> runner;
};

struct RunRecord {
  int index = 0;
  std::string sweep;
  std::vector<AxisPoint> points;
  int replication = 0;
  uint64_t seed = 0;

  RunStatus status = RunStatus::kOk;
  std::string error;
  // Execution attempts consumed (1 = first try succeeded or no retry
  // policy). Retries re-run the same RunSpec with the same seed, so a
  // successful retry is byte-identical to a first-try success except here.
  int attempts = 1;

  double wall_ms = 0;        // host wall-clock time for this run
  double events_per_sec = 0; // simulator events per wall-clock second

  ScenarioResult result;  // zero-initialized when status != kOk mid-build

  // First matching axis value, or `fallback` when the axis is absent.
  std::string PointValue(const std::string& axis, const std::string& fallback = "") const;

  // Calls visit(key, field) for every field, in record order: the record's
  // schema. EncodeRunRecord, DecodeRunRecord and CsvSink walk this list and
  // the ones of ScenarioResult and Summary it nests. `Self` is RunRecord or
  // const RunRecord.
  template <typename Self, typename Visit>
  static void ForEachField(Self& self, Visit&& visit) {
    visit("sweep", self.sweep);
    visit("run", self.index);
    visit("axes", self.points);
    visit("replication", self.replication);
    visit("seed", self.seed);
    visit("status", self.status);
    visit("attempts", self.attempts);
    visit("error", self.error);
    visit("wall_ms", self.wall_ms);
    visit("events_per_sec", self.events_per_sec);
    visit("result", self.result);
  }
};

// A record holding `run`'s identity in sweep `sweep_name` (index, axis
// points, replication, seed) and defaults everywhere else.
RunRecord RecordFor(const RunSpec& run, const std::string& sweep_name);

// Aggregate outcome of a sweep: what the progress meter prints, what
// DIBS_REQUIRE_OK gates bench exit codes on, and what graceful-degradation
// table rendering consults.
struct SweepSummary {
  size_t total = 0;
  size_t ok = 0;
  size_t failed = 0;
  size_t timeout = 0;
  size_t crashed = 0;
  size_t retried = 0;   // rows that consumed more than one attempt
  size_t resumed = 0;   // rows replayed from a journal instead of executed

  size_t done() const { return ok + failed + timeout + crashed; }
  bool AllOk() const { return ok == total; }

  // Adds `record` to the status tallies (attempts feed `retried`).
  void Count(const RunRecord& record);
};

}  // namespace dibs

#endif  // SRC_EXP_RUN_RECORD_H_
