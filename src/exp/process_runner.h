// Run execution backends for the sweep engine.
//
// ExecuteRunInline runs one RunSpec on the calling thread with the PR-1
// *cooperative* guards: a wall-clock deadline and event budget polled inside
// the simulator event loop, and exception capture. Those guards cannot see
// a segfault, an OOM kill, or a run wedged outside the event loop (setup,
// stats, a sink callback).
//
// ForkedRun covers exactly that gap (IsolationMode::kProcess): the run
// executes in a forked child that reports its encoded RunRecord over a
// pipe, so a crash is contained and recorded as `crashed` (with the fatal
// signal) instead of killing the sweep, and a *hard watchdog* SIGKILLs any
// child still alive run_timeout_sec + watchdog_grace_sec after it started —
// catching hangs the cooperative check can never reach. The child's
// cooperative guards stay armed, so an in-simulator overrun still produces
// a proper `timeout` record with partial statistics; the watchdog is the
// backstop, not the primary timer.
//
// The parent orchestrator is single-threaded in process mode (parallelism
// comes from the children), which keeps fork() safe: no other thread can
// hold a lock across the fork.

#ifndef SRC_EXP_PROCESS_RUNNER_H_
#define SRC_EXP_PROCESS_RUNNER_H_

#include <sys/types.h>

#include <chrono>
#include <memory>
#include <string>

#include "src/exp/sweep_engine.h"

namespace dibs {

// Runs one spec to completion on the calling thread (cooperative guards
// only). This is the single body both isolation modes execute.
RunRecord ExecuteRunInline(const RunSpec& run, const std::string& sweep_name,
                           const SweepOptions& options);

// One forked, watchdog-supervised run.
class ForkedRun {
 public:
  using Clock = std::chrono::steady_clock;

  // Forks a child that calls ExecuteRunInline and writes the encoded record
  // to a pipe, then _exit(0)s (no atexit/static destructors, no double
  // flush of inherited stdio buffers). Returns nullptr if fork/pipe fails.
  static std::unique_ptr<ForkedRun> Start(const RunSpec& run,
                                          const std::string& sweep_name,
                                          const SweepOptions& options);

  ~ForkedRun();

  ForkedRun(const ForkedRun&) = delete;
  ForkedRun& operator=(const ForkedRun&) = delete;

  // Non-blocking pipe read end, for poll().
  int fd() const { return fd_; }

  // When the hard watchdog must fire (armed only if run_timeout_sec > 0).
  bool has_deadline() const { return has_deadline_; }
  Clock::time_point kill_deadline() const { return kill_deadline_; }

  // Drains whatever the pipe holds without blocking. Returns true once EOF
  // has been seen (the child is done writing — finished or dead).
  bool ReadAvailable();

  // Hard watchdog: SIGKILL the child. Finish() will report kTimeout.
  void Kill();

  // Reaps the child (blocking waitpid) and produces the final record:
  //   - complete decodable line on the pipe -> the child's own record;
  //   - watchdog-killed                     -> kTimeout;
  //   - died by signal                      -> kCrashed ("signal N (...)");
  //   - exited without a record             -> kCrashed ("exit code N ...").
  // The caller owns `attempts`; Finish leaves it at the child's value (1).
  RunRecord Finish(const RunSpec& run, const std::string& sweep_name);

 private:
  ForkedRun() = default;

  pid_t pid_ = -1;
  int fd_ = -1;
  bool has_deadline_ = false;
  Clock::time_point kill_deadline_;
  bool watchdog_killed_ = false;
  bool eof_ = false;
  bool reaped_ = false;
  double wall_sec_at_kill_ = 0;
  Clock::time_point start_;
  std::string buf_;
};

}  // namespace dibs

#endif  // SRC_EXP_PROCESS_RUNNER_H_
