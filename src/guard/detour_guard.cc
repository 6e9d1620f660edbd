#include "src/guard/detour_guard.h"

namespace dibs {

GuardState DetourGuard::OnWindowTick(Time now) {
  const GuardState previous = state_;

  // Fold the window into the EWMA. Windows with too little traffic update
  // nothing: an idle switch must neither trip (division by tiny counts
  // produces wild rates) nor decay its memory of a storm it just left.
  const bool judged = window_packets_ >= kGuardMinWindowPackets;
  if (judged) {
    const double sample = static_cast<double>(window_detour_attempts_) /
                          static_cast<double>(window_packets_);
    ewma_detour_rate_ =
        kGuardEwmaAlpha * sample + (1.0 - kGuardEwmaAlpha) * ewma_detour_rate_;
  }

  const bool over_trip = ewma_detour_rate_ >= kGuardTripDetourRate;
  const bool under_rearm = ewma_detour_rate_ < kGuardRearmDetourRate;

  switch (state_) {
    case GuardState::kArmed:
      if (judged && over_trip) {
        TransitionTo(GuardState::kSuppressed, now);
      }
      break;
    case GuardState::kSuppressed:
      if (now - state_since_ >= kGuardSuppressHold) {
        TransitionTo(GuardState::kProbing, now);
      }
      break;
    case GuardState::kProbing:
      // The hysteresis band [rearm, trip) holds the breaker in PROBING:
      // pressure is neither clearly gone nor clearly back.
      if (judged && over_trip) {
        TransitionTo(GuardState::kSuppressed, now);
      } else if (under_rearm) {
        TransitionTo(GuardState::kArmed, now);
      }
      break;
  }

  window_packets_ = 0;
  window_detour_attempts_ = 0;
  window_probes_used_ = 0;
  return previous;
}

void DetourGuard::TransitionTo(GuardState next, Time now) {
  state_ = next;
  state_since_ = now;
}

}  // namespace dibs
