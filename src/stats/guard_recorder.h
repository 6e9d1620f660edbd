// Overload-guard instrumentation: breaker transitions and per-state dwell
// time, a pure TraceSink subscribed to kGuardTransition. Guard-attributed
// drops are DetourRecorder's per-reason table entries.
//
// GuardRecorder only READS the simulation — it folds transition events and
// never touches DetourGuard or any other forwarding state. DetourGuard is
// simulation state, GuardRecorder is observation; every Scenario attaches a
// GuardRecorder, so the golden digests would move if it ever wrote back.

#ifndef SRC_STATS_GUARD_RECORDER_H_
#define SRC_STATS_GUARD_RECORDER_H_

#include <cstdint>
#include <map>

#include "src/guard/guard_config.h"
#include "src/trace/trace_sink.h"

namespace dibs {

class GuardRecorder : public TraceSink {
 public:
  static constexpr TraceKindSet kKinds = TraceKinds({TraceEventType::kGuardTransition});

  // The from/to states ride the event's port/queue_depth fields.
  void OnEvent(const TraceEvent& e) override {
    const auto from = static_cast<GuardState>(e.port);
    const auto to = static_cast<GuardState>(e.queue_depth);
    ++transitions_;
    if (to == GuardState::kSuppressed && from == GuardState::kArmed) {
      ++trips_;
    }
    // Accumulate dwell in the state being left.
    auto [it, inserted] = state_since_.try_emplace(e.node, StateSpan{from, Time()});
    if (it->second.state == GuardState::kSuppressed) {
      suppressed_total_ = suppressed_total_ + (e.at - it->second.since);
    }
    it->second = {to, e.at};
  }

  // Breaker trips (ARMED -> SUPPRESSED edges) across all switches.
  uint64_t trips() const { return trips_; }
  uint64_t transition_count() const { return transitions_; }

  // Total sim time switches spent SUPPRESSED, summed across switches, up to
  // `end` (breakers still open at `end` count their open stretch).
  double SuppressedMsUpTo(Time end) const {
    Time total = suppressed_total_;
    for (const auto& [node, span] : state_since_) {
      if (span.state == GuardState::kSuppressed && end > span.since) {
        total = total + (end - span.since);
      }
    }
    return total.ToMillis();
  }

 private:
  struct StateSpan {
    GuardState state = GuardState::kArmed;
    Time since;
  };

  std::map<int, StateSpan> state_since_;  // per-switch current state
  Time suppressed_total_;
  uint64_t transitions_ = 0;
  uint64_t trips_ = 0;
};

}  // namespace dibs

#endif  // SRC_STATS_GUARD_RECORDER_H_
