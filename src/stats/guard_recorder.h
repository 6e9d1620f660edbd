// Overload-guard instrumentation: breaker transitions, guard-attributed
// drops, and per-state dwell time, implemented as a pure NetworkObserver.
//
// GuardRecorder only READS the simulation — it counts OnGuardTransition and
// OnDrop callbacks and never touches DetourGuard or any other forwarding
// state (the observer-purity analyzer rule enforces exactly this split:
// DetourGuard is simulation state, GuardRecorder is observation).

#ifndef SRC_STATS_GUARD_RECORDER_H_
#define SRC_STATS_GUARD_RECORDER_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/device/observer.h"
#include "src/guard/guard_config.h"

namespace dibs {

class GuardRecorder : public NetworkObserver {
 public:
  struct Transition {
    int node = -1;
    GuardState from = GuardState::kArmed;
    GuardState to = GuardState::kArmed;
    Time at;
  };

  void OnGuardTransition(int node, GuardState from, GuardState to, Time at) override {
    transitions_.push_back({node, from, to, at});
    if (to == GuardState::kSuppressed && from == GuardState::kArmed) {
      ++trips_;
      tripped_switches_.insert(node);
    }
    // Accumulate dwell in the state being left.
    auto [it, inserted] = state_since_.try_emplace(node, StateSpan{from, Time()});
    if (it->second.state == GuardState::kSuppressed) {
      suppressed_total_ = suppressed_total_ + (at - it->second.since);
    }
    it->second = {to, at};
  }

  void OnDrop(int node, const Packet& p, DropReason reason, Time at) override {
    if (reason == DropReason::kGuardSuppressed) {
      ++suppressed_drops_;
    } else if (reason == DropReason::kGuardTtlClamped) {
      ++ttl_clamped_drops_;
    } else if (reason == DropReason::kNoEligibleDetour) {
      ++no_eligible_detour_drops_;
    }
  }

  // Breaker trips (ARMED -> SUPPRESSED edges) across all switches.
  uint64_t trips() const { return trips_; }
  uint64_t transition_count() const { return transitions_.size(); }
  const std::vector<Transition>& transitions() const { return transitions_; }
  // Distinct switches that tripped at least once, ordered by node id.
  const std::set<int>& tripped_switches() const { return tripped_switches_; }

  uint64_t suppressed_drops() const { return suppressed_drops_; }
  uint64_t ttl_clamped_drops() const { return ttl_clamped_drops_; }
  uint64_t no_eligible_detour_drops() const { return no_eligible_detour_drops_; }

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
  uint64_t suppressed_drops_ = 0;
  uint64_t ttl_clamped_drops_ = 0;
  uint64_t no_eligible_detour_drops_ = 0;
};

}  // namespace dibs

#endif  // SRC_STATS_GUARD_RECORDER_H_
