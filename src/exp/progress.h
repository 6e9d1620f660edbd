// Sweep progress meter on stderr. On a terminal it rewrites one line in
// place; when stderr is a pipe (CI logs) it prints at ~10% milestones so
// logs stay short. stdout is never touched, so bench tables remain
// byte-identical with the meter on.

#ifndef SRC_EXP_PROGRESS_H_
#define SRC_EXP_PROGRESS_H_

#include <chrono>
#include <cstddef>
#include <string>

#include "src/exp/run_record.h"

namespace dibs {

class ProgressReporter {
 public:
  // `enabled` false turns every call into a no-op.
  ProgressReporter(std::string name, size_t total, bool enabled);

  // Caller (the sweep engine) serializes calls; this class keeps no lock.
  void Update(const SweepSummary& summary);

  // Prints the final summary line (always, even off-tty) and a newline.
  void Finish(const SweepSummary& summary);

  // The line body (no \r / trailing newline), e.g.
  //   "[sweep fig11] 7/12 done (ok 5, failed 1, timeout 1) in 3.1s"
  // Degraded statuses (failed/timeout/crashed) and
  // retried/resumed counts appear only when nonzero, so the healthy-sweep
  // line stays short. Exposed for the unit test.
  std::string ComposeLine(const SweepSummary& summary, double elapsed_sec) const;

 private:
  void PrintLine(const SweepSummary& summary, bool last);

  std::string name_;
  size_t total_;
  bool enabled_;
  bool tty_;
  size_t next_milestone_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dibs

#endif  // SRC_EXP_PROGRESS_H_
