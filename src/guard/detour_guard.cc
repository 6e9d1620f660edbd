#include "src/guard/detour_guard.h"

namespace dibs {
namespace {

double Ewma(double prev, double sample, double alpha) {
  return alpha * sample + (1.0 - alpha) * prev;
}

}  // namespace

GuardState DetourGuard::OnWindowTick(Time now) {
  const GuardState previous = state_;

  // Fold the window into the EWMA. Windows with too little traffic update
  // nothing: an idle switch must neither trip (division by tiny counts
  // produces wild rates) nor decay its memory of a storm it just left.
  const bool judged = window_packets_ >= config_.min_window_packets;
  if (judged) {
    ewma_detour_rate_ = Ewma(ewma_detour_rate_,
                             static_cast<double>(window_detour_attempts_) /
                                 static_cast<double>(window_packets_),
                             config_.ewma_alpha);
  }

  const bool over_trip = ewma_detour_rate_ >= config_.trip_detour_rate;
  const bool under_rearm = ewma_detour_rate_ < config_.rearm_detour_rate;

  switch (state_) {
    case GuardState::kArmed:
      if (judged && over_trip) {
        TransitionTo(GuardState::kSuppressed, now);
      }
      break;
    case GuardState::kSuppressed:
      if (now - state_since_ >= config_.suppress_hold) {
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
