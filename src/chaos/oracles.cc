#include "src/chaos/oracles.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/chaos/spec_codec.h"
#include "src/exp/record_codec.h"
#include "src/exp/sweep_engine.h"
#include "src/util/validation.h"

namespace dibs::chaos {
namespace {

constexpr const char* kSweepName = "chaos";
constexpr int kReplications = 2;

SweepOptions EngineOptions(const OracleOptions& opts, int jobs,
                           IsolationMode mode) {
  SweepOptions so;
  so.jobs = jobs;
  so.run_timeout_sec = opts.run_timeout_sec;
  so.event_budget = opts.event_budget;
  so.progress = false;
  so.retry.max_attempts = 1;  // a flaky-looking case must fail, not retry away
  so.retry.initial_ms = 0;
  so.isolate = mode;
  so.watchdog_grace_sec = 5;
  so.resume = 0;
  return so;
}

std::vector<RunSpec> SpecRuns(const ChaosSpec& spec, bool traced) {
  std::vector<RunSpec> runs;
  for (int rep = 0; rep < kReplications; ++rep) {
    RunSpec r;
    r.config = spec.ToConfig();
    r.config.seed = spec.seed + static_cast<uint64_t>(rep);
    r.config.trace.enabled = traced;
    r.replication = rep;
    r.points = {{"case", std::to_string(spec.case_index)}};
    runs.push_back(std::move(r));
  }
  return runs;
}

// All oracle sweeps run with validation enabled regardless of DIBS_VALIDATE
// in the environment — the conservation ledger IS the primary oracle.
std::vector<RunRecord> RunSweep(const ChaosSpec& spec,
                                const OracleOptions& opts, int jobs,
                                IsolationMode mode, bool traced) {
  validate::ScopedEnable enable;
  SweepEngine engine(EngineOptions(opts, jobs, mode));
  return engine.RunAll(kSweepName, SpecRuns(spec, traced), nullptr);
}

// First record that did not finish ok, rendered for the verdict.
bool RecordsOk(const std::vector<RunRecord>& records, std::string* detail) {
  for (const RunRecord& r : records) {
    if (r.status != RunStatus::kOk) {
      *detail = "replication " + std::to_string(r.replication) + " finished " +
                RunStatusName(r.status) + ": " + r.error;
      return false;
    }
  }
  return true;
}

bool CompareRecords(const std::vector<RunRecord>& want,
                    const std::vector<RunRecord>& got, bool drop_trace_only,
                    std::string* detail) {
  if (want.size() != got.size()) {
    *detail = "record count " + std::to_string(got.size()) + " != " +
              std::to_string(want.size());
    return false;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const std::string a = CanonicalRecord(want[i], drop_trace_only);
    const std::string b = CanonicalRecord(got[i], drop_trace_only);
    if (a != b) {
      // Report the first diverging byte — enough to locate the field.
      size_t d = 0;
      while (d < a.size() && d < b.size() && a[d] == b[d]) {
        ++d;
      }
      const size_t lo = d < 40 ? 0 : d - 40;
      *detail = "replication " + std::to_string(want[i].replication) +
                " diverges at byte " + std::to_string(d) + ": ..." +
                a.substr(lo, 80) + "... vs ..." + b.substr(lo, 80) + "...";
      return false;
    }
  }
  return true;
}

bool InUnit(double v) { return v >= 0.0 && v <= 1.0; }  // false for NaN

// Bounds every well-formed result must satisfy, whatever the scenario did.
bool SanityCheck(const ChaosSpec& spec, const std::vector<RunRecord>& records,
                 std::string* detail) {
  for (const RunRecord& rec : records) {
    const ScenarioResult& s = rec.result;
    std::ostringstream os;
    os << "replication " << rec.replication << ": ";
    if (s.queries_completed > s.queries_launched) {
      os << "queries_completed " << s.queries_completed << " > launched "
         << s.queries_launched;
    } else if (s.flows_completed > s.flows_started) {
      os << "flows_completed " << s.flows_completed << " > started "
         << s.flows_started;
    } else if (!InUnit(s.detoured_fraction) || !InUnit(s.query_detour_share)) {
      os << "detour fraction outside [0,1]: " << s.detoured_fraction << " / "
         << s.query_detour_share;
    } else if (s.ttl_drops > s.drops) {
      os << "ttl_drops " << s.ttl_drops << " > drops " << s.drops;
    } else if (spec.detour_policy == "none" && s.detours != 0) {
      os << "policy 'none' produced " << s.detours << " detours";
    } else if (!spec.guard_enabled &&
               (s.guard_trips != 0 || s.guard_transitions != 0 ||
                s.guard_suppressed_drops != 0 || s.guard_ttl_clamped_drops != 0 ||
                s.guard_time_suppressed_ms != 0)) {
      os << "guard disabled but guard counters are nonzero";
    } else if (!spec.guard_watchdog && s.collapse_detected) {
      os << "watchdog off but collapse_detected is set";
    } else {
      uint64_t by_reason_total = 0;
      for (uint64_t n : s.drops_by_reason) {
        by_reason_total += n;
      }
      if (by_reason_total != s.drops) {
        os << "drops_by_reason sums to " << by_reason_total << " != drops "
           << s.drops;
      } else {
        continue;
      }
    }
    *detail = os.str();
    return false;
  }
  return true;
}

// Unique scratch path for the resume oracle's journal. The path never
// influences simulation results; it only has to avoid collisions between
// concurrent fuzz processes.
std::string ScratchJournalPath(const ChaosSpec& spec) {
  static std::atomic<uint64_t> counter{0};
  std::ostringstream os;
  os << "/tmp/dibs_chaos_journal_" << ::getpid() << "_" << spec.case_index
     << "_" << counter.fetch_add(1) << ".jsonl";
  return os.str();
}

// Scoped file delete so failed oracles do not accumulate scratch journals.
class FileRemover {
 public:
  explicit FileRemover(std::string path) : path_(std::move(path)) {}
  ~FileRemover() { std::remove(path_.c_str()); }

 private:
  std::string path_;
};

// Kill-and-resume: journal a full sweep, truncate the journal to the header
// plus the first record (simulating a crash mid-sweep), then resume. The
// resumed sweep must reproduce the uninterrupted records exactly.
bool ResumeOracle(const ChaosSpec& spec, const OracleOptions& opts,
                  const std::vector<RunRecord>& baseline, std::string* detail) {
  const std::string path = ScratchJournalPath(spec);
  FileRemover cleanup(path);

  {
    validate::ScopedEnable enable;
    SweepOptions so = EngineOptions(opts, 1, IsolationMode::kThread);
    so.journal_path = path;
    SweepEngine engine(so);
    engine.RunAll(kSweepName, SpecRuns(spec, false), nullptr);
  }

  // Truncate: keep the header line and the first completed record.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      lines.push_back(line);
    }
  }
  if (lines.size() < 3) {
    *detail = "journal only has " + std::to_string(lines.size()) + " lines";
    return false;
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << lines[0] << "\n" << lines[1] << "\n";
  }

  std::vector<RunRecord> resumed;
  {
    validate::ScopedEnable enable;
    SweepOptions so = EngineOptions(opts, 1, IsolationMode::kThread);
    so.journal_path = path;
    so.resume = 1;
    SweepEngine engine(so);
    resumed = engine.RunAll(kSweepName, SpecRuns(spec, false), nullptr);
  }
  return CompareRecords(baseline, resumed, false, detail);
}

class OracleRunner {
 public:
  OracleRunner(const ChaosSpec& spec, const OracleOptions& opts)
      : spec_(spec), opts_(opts) {}

  OracleVerdict Fail(const std::string& oracle, const std::string& detail) {
    return {false, oracle, detail};
  }

  // Baseline: 2 replications, one worker, in-thread. Lazily computed so
  // CheckOracle pays for exactly one sweep plus its oracle.
  const std::vector<RunRecord>& Baseline() {
    if (baseline_.empty()) {
      baseline_ = RunSweep(spec_, opts_, 1, IsolationMode::kThread, false);
    }
    return baseline_;
  }

  OracleVerdict Validate() {
    std::string detail;
    if (!RecordsOk(Baseline(), &detail)) {
      return Fail("validate", detail);
    }
    return {};
  }

  OracleVerdict Sanity() {
    std::string detail;
    if (!SanityCheck(spec_, Baseline(), &detail)) {
      return Fail("sanity", detail);
    }
    return {};
  }

  OracleVerdict Determinism() {
    const std::vector<RunRecord> again =
        RunSweep(spec_, opts_, 1, IsolationMode::kThread, false);
    std::string detail;
    if (!CompareRecords(Baseline(), again, false, &detail)) {
      return Fail("determinism", detail);
    }
    return {};
  }

  OracleVerdict Jobs() {
    const std::vector<RunRecord> parallel =
        RunSweep(spec_, opts_, 2, IsolationMode::kThread, false);
    std::string detail;
    if (!CompareRecords(Baseline(), parallel, false, &detail)) {
      return Fail("jobs", detail);
    }
    return {};
  }

  OracleVerdict Trace() {
    const std::vector<RunRecord> traced =
        RunSweep(spec_, opts_, 1, IsolationMode::kThread, true);
    std::string detail;
    if (!CompareRecords(Baseline(), traced, /*drop_trace_only=*/true, &detail)) {
      return Fail("trace", detail);
    }
    return {};
  }

  OracleVerdict Isolation() {
    const std::vector<RunRecord> forked =
        RunSweep(spec_, opts_, 1, IsolationMode::kProcess, false);
    std::string detail;
    if (!CompareRecords(Baseline(), forked, false, &detail)) {
      return Fail("isolation", detail);
    }
    return {};
  }

  OracleVerdict Resume() {
    std::string detail;
    if (!ResumeOracle(spec_, opts_, Baseline(), &detail)) {
      return Fail("resume", detail);
    }
    return {};
  }

  OracleVerdict Run(const std::string& name) {
    if (name == "validate") {
      return Validate();
    }
    if (name == "sanity") {
      const OracleVerdict v = Validate();  // bounds are meaningless on a
      return v.passed ? Sanity() : v;      // failed record
    }
    if (name == "determinism") {
      return Determinism();
    }
    if (name == "jobs") {
      return Jobs();
    }
    if (name == "trace") {
      return Trace();
    }
    if (name == "isolation") {
      return Isolation();
    }
    if (name == "resume") {
      return Resume();
    }
    return Fail(name, "unknown oracle");
  }

 private:
  const ChaosSpec& spec_;
  const OracleOptions& opts_;
  std::vector<RunRecord> baseline_;
};

}  // namespace

std::string CanonicalRecord(RunRecord record, bool drop_trace_only) {
  record.wall_ms = 0;
  record.events_per_sec = 0;
  if (drop_trace_only) {
    record.result.loop_packets = 0;
  }
  return EncodeRunRecord(record);
}

OracleVerdict CheckSpec(const ChaosSpec& spec, const OracleOptions& options,
                        bool force_heavy) {
  OracleRunner runner(spec, options);
  for (const char* light : {"validate", "sanity", "determinism", "jobs",
                            "trace"}) {
    const OracleVerdict v = runner.Run(light);
    if (!v.passed) {
      return v;
    }
  }
  const bool heavy =
      force_heavy || (options.heavy_every > 0 &&
                      spec.case_index % options.heavy_every == 0);
  if (heavy) {
    for (const char* name : {"isolation", "resume"}) {
      const OracleVerdict v = runner.Run(name);
      if (!v.passed) {
        return v;
      }
    }
  }
  return {};
}

OracleVerdict CheckOracle(const ChaosSpec& spec, const std::string& oracle,
                          const OracleOptions& options) {
  OracleRunner runner(spec, options);
  return runner.Run(oracle);
}

}  // namespace dibs::chaos
