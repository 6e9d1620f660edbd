// Per-switch detour-storm circuit breaker.
//
// A DetourGuard watches one switch's detour demand — detour decisions per
// handled packet — smoothed into an EWMA on a fixed tick cadence. When the
// EWMA crosses its trip threshold the breaker opens (SUPPRESSED): the switch
// falls back to plain drop-tail and overflow packets die with the
// guard-suppressed drop reason instead of feeding the storm. After a dwell
// the breaker half-closes (PROBING), admitting a bounded number of probe
// detours per window; if the probes show pressure has subsided (hysteresis:
// the re-arm line sits below the trip line) the breaker re-ARMs, otherwise
// it re-opens.
//
// DetourGuard mutates switch forwarding behavior, so it is simulation state:
// a TraceSink must never call its non-const methods (RunStats rides in
// every golden cell and the trace bus in every traced one, so the golden
// digests would move). It is driven by GuardFabric (tick cadence) and
// SwitchNode (per-packet notes), never by sinks.

#ifndef SRC_GUARD_DETOUR_GUARD_H_
#define SRC_GUARD_DETOUR_GUARD_H_

#include <cstdint>

#include "src/guard/guard_config.h"
#include "src/sim/time.h"

namespace dibs {

class DetourGuard {
 public:
  explicit DetourGuard(Time armed_at) : state_since_(armed_at) {}

  GuardState state() const { return state_; }

  // One detour decision point was reached (the desired queue refused the
  // packet and the switch consulted the policy). Returns true when the
  // breaker admits the detour, false when it must drop as guard-suppressed.
  // Counted as demand either way, so the EWMA keeps tracking pressure while
  // the breaker is open.
  bool AdmitDetour() {
    ++window_detour_attempts_;
    switch (state_) {
      case GuardState::kArmed:
        return true;
      case GuardState::kSuppressed:
        return false;
      case GuardState::kProbing:
        if (window_probes_used_ >= kGuardProbeBudget) {
          return false;
        }
        ++window_probes_used_;
        return true;
    }
    return true;
  }

  // Per-packet note from the switch's receive path.
  void NotePacket() { ++window_packets_; }

  // Window rollup, called by GuardFabric once per kGuardWindow at time
  // `now`. Folds the window counters into the EWMA, runs the state
  // machine, resets the window, and returns the previous state (callers
  // compare against state() to detect a transition).
  GuardState OnWindowTick(Time now);

  // Smoothed signal (post-tick value).
  double ewma_detour_rate() const { return ewma_detour_rate_; }

 private:
  void TransitionTo(GuardState next, Time now);

  GuardState state_ = GuardState::kArmed;
  Time state_since_;

  // Current-window counters, reset every tick.
  uint64_t window_packets_ = 0;
  uint64_t window_detour_attempts_ = 0;
  uint64_t window_probes_used_ = 0;

  double ewma_detour_rate_ = 0;
};

}  // namespace dibs

#endif  // SRC_GUARD_DETOUR_GUARD_H_
