// CollapseWatchdog: harness-level congestion-collapse detector.
//
// Samples a cumulative goodput counter on a fixed cadence and watches the
// per-window slope. The scenario feeds it flow completions: raw delivered
// packets stay pinned at downlink capacity even deep into overload, while
// completions are what stall. Once some window has established a peak rate
// (at least kCollapseMinPeak), kCollapseConsecutive windows in a row below
// kCollapseFraction * peak mark the run as collapsed — the fig14 signature
// where detours amplify load until queries stop completing even though the
// offered load never stopped. Detection records the onset time; under
// DIBS_STRICT_COLLAPSE=1 it instead aborts the run by throwing CollapseError
// out of the event loop, giving sweeps a typed, attributable failure rather
// than a mysteriously slow run.
//
// The watchdog never touches forwarding state and draws no randomness; like
// the monitors it only reads counters and reschedules itself, so enabling
// it cannot change simulation results.

#ifndef SRC_GUARD_COLLAPSE_WATCHDOG_H_
#define SRC_GUARD_COLLAPSE_WATCHDOG_H_

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "src/guard/guard_config.h"
#include "src/sim/simulator.h"

namespace dibs {

// Thrown (strict mode only) when sustained collapse is detected.
class CollapseError : public std::runtime_error {
 public:
  explicit CollapseError(const std::string& what) : std::runtime_error(what) {}
};

class CollapseWatchdog {
 public:
  // `delivered` reads the cumulative goodput counter (the scenario passes
  // flow completions). A callback keeps src/guard below src/device in the
  // layering.
  CollapseWatchdog(Simulator* sim, std::function<uint64_t()> delivered);

  // Begins sampling every kCollapseWindow until `stop_time`.
  // `strict` is usually ReadStrictCollapseEnv().
  void Start(Time stop_time, bool strict);

  bool collapse_detected() const { return collapsed_; }
  // Sim time (ms) of the first window that completed the collapse streak;
  // 0 when no collapse was detected.
  double collapse_onset_ms() const { return collapse_onset_ms_; }
  uint64_t peak_window_packets() const { return peak_window_packets_; }
  uint64_t windows_sampled() const { return windows_sampled_; }

  // True iff DIBS_STRICT_COLLAPSE=1 in the environment.
  static bool ReadStrictCollapseEnv();

 private:
  void Sample();

  Simulator* sim_;
  std::function<uint64_t()> delivered_;
  Time stop_time_;
  bool strict_ = false;
  bool started_ = false;

  uint64_t last_delivered_ = 0;
  uint64_t peak_window_packets_ = 0;
  int below_streak_ = 0;
  uint64_t windows_sampled_ = 0;
  bool collapsed_ = false;
  double collapse_onset_ms_ = 0;
};

}  // namespace dibs

#endif  // SRC_GUARD_COLLAPSE_WATCHDOG_H_
