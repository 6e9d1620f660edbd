// Overload-guard instrumentation: breaker transitions and per-state dwell
// time, a pure TraceSink subscribed to kGuardTransition. Guard-attributed
// drops are DetourRecorder's per-reason table entries.
//
// GuardRecorder only READS the simulation — it folds transition events and
// never touches DetourGuard or any other forwarding state (the
// observer-purity analyzer rule enforces exactly this split: DetourGuard is
// simulation state, GuardRecorder is observation).

#ifndef SRC_STATS_GUARD_RECORDER_H_
#define SRC_STATS_GUARD_RECORDER_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/guard/guard_config.h"
#include "src/trace/trace_sink.h"

namespace dibs {

class GuardRecorder : public TraceSink {
 public:
  static constexpr TraceKindSet kKinds = TraceKinds({TraceEventType::kGuardTransition});

  struct Transition {
    int node = -1;
    GuardState from = GuardState::kArmed;
    GuardState to = GuardState::kArmed;
    Time at;
  };

  // The from/to states ride the event's port/queue_depth fields.
  void OnEvent(const TraceEvent& e) override {
    const auto from = static_cast<GuardState>(e.port);
    const auto to = static_cast<GuardState>(e.queue_depth);
    transitions_.push_back({e.node, from, to, e.at});
    if (to == GuardState::kSuppressed && from == GuardState::kArmed) {
      ++trips_;
      tripped_switches_.insert(e.node);
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
  uint64_t transition_count() const { return transitions_.size(); }
  const std::vector<Transition>& transitions() const { return transitions_; }
  // Distinct switches that tripped at least once, ordered by node id.
  const std::set<int>& tripped_switches() const { return tripped_switches_; }

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

  std::vector<Transition> transitions_;
  std::map<int, StateSpan> state_since_;  // per-switch current state
  std::set<int> tripped_switches_;
  Time suppressed_total_;
  uint64_t trips_ = 0;
};

}  // namespace dibs

#endif  // SRC_STATS_GUARD_RECORDER_H_
