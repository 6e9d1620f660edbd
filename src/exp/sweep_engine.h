// The sweep engine: executes a SweepSpec's run matrix and delivers
// RunRecords to an optional ResultSink in deterministic matrix order, no
// matter how the runs are scheduled. Three independent robustness layers:
//
//   cooperative  (always on)  wall-clock deadline + event budget polled
//                             inside the simulator loop (-> `timeout`);
//                             exception capture (-> `failed`).
//   retry        (retry.max_attempts > 1) a run that does not finish ok is
//                             re-run at once, with the same seed, and keeps
//                             the status of its last attempt.
//   isolation    (isolate = kProcess) each run forks a child supervised
//                             by a hard SIGKILL watchdog; crashes become
//                             `crashed` records instead of killing the
//                             sweep. src/exp/process_runner.h.
//
// A RunJournal (journal_path) makes the whole sweep crash-resilient: every
// finished row is journaled with a flush, and `resume` verifies the
// journal's sweep fingerprint, replays already-`ok` rows, and executes only
// the rest — so a `kill -9` mid-sweep loses at most the in-flight runs. Sink
// output is byte-identical for a given spec at any job count, across
// isolation modes, and across resume boundaries (modulo the host-side
// wall_ms/events_per_sec fields).
//
// Every option is a plain value: src/exp reads no environment. The benches
// map their DIBS_* sweep knobs onto SweepOptions in bench/bench_util.h.

#ifndef SRC_EXP_SWEEP_ENGINE_H_
#define SRC_EXP_SWEEP_ENGINE_H_

#include <string>
#include <vector>

#include "src/exp/result_sink.h"
#include "src/exp/run_record.h"
#include "src/exp/sweep_spec.h"

namespace dibs {

enum class IsolationMode : uint8_t {
  kThread,   // runs share the sweep process (worker thread pool)
  kProcess,  // one forked child per run, hard watchdog, crash containment
};

struct RetryPolicy {
  // Total attempts per run, first try included; 1 disables retries.
  int max_attempts = 1;
};

struct SweepOptions {
  // Worker threads (thread mode) or concurrent children (process mode).
  // 0 means std::thread::hardware_concurrency(); always clamped to
  // [1, run count].
  int jobs = 0;

  // Per-run wall-clock deadline in seconds; 0 disables. Checked inside the
  // simulator event loop, so a hung run stops within ~one check interval.
  // In process mode it additionally arms the hard watchdog at
  // run_timeout_sec + watchdog_grace_sec.
  double run_timeout_sec = 0;

  // Per-run cap on simulator events processed; 0 disables.
  uint64_t event_budget = 0;

  // Progress meter on stderr, for sweeps of more than one run.
  bool progress = true;

  RetryPolicy retry;

  IsolationMode isolate = IsolationMode::kThread;

  // Hard-watchdog slack beyond run_timeout_sec before SIGKILL (process
  // mode); covers the gap between the simulator's cooperative interrupt and
  // a truly wedged child.
  double watchdog_grace_sec = 5;

  // Journal file; empty means no journal.
  std::string journal_path;

  // Resume from the journal: skip rows it records as `ok` (fingerprint must
  // match or RunAll throws std::runtime_error). A missing or empty journal
  // file resumes as a fresh run.
  bool resume = false;
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions options = {});

  // Expands the spec and runs it. Returns all records in matrix order; the
  // sink (optional) sees the same records in the same order, streamed as
  // soon as each record's predecessors are complete.
  std::vector<RunRecord> Run(const SweepSpec& spec, ResultSink* sink = nullptr);

  // Lower-level entry: runs an explicit list (e.g. an expanded spec plus
  // hand-appended reference runs). RunSpec::index is reassigned to list
  // order; seeds are taken from each RunSpec's config verbatim.
  std::vector<RunRecord> RunAll(const std::string& sweep_name,
                                std::vector<RunSpec> runs,
                                ResultSink* sink = nullptr);

  // Outcome tallies of the most recent Run/RunAll.
  const SweepSummary& summary() const { return summary_; }

  // The effective worker count for `requested` (0 = hardware threads).
  static int ResolveJobs(int requested);

 private:
  SweepOptions options_;
  SweepSummary summary_;
};

}  // namespace dibs

#endif  // SRC_EXP_SWEEP_ENGINE_H_
