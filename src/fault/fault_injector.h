// Compiles a FaultPlan into simulator events against a live Network.
//
// Start() validates every event (link/switch ids in range, switch targets
// actually switches) and schedules one simulator event per plan entry, in
// (time, plan order). Each firing applies the fault through the Network's
// fault API — which drains/blackholes ports, masks the live FIB, and flips
// crash flags. Each repair (link up, switch restart, link restore) is told
// to RunStats, if any, where it opens a recovery window; restoring a
// degraded link emits no trace event, so the injector reports repairs
// directly. Determinism: the plan is data, the events are scheduled up
// front, and every downstream random draw uses the simulator RNG, so a seed
// fully determines the fault timeline.

#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <utility>

#include "src/device/network.h"
#include "src/fault/fault_plan.h"
#include "src/stats/run_stats.h"

namespace dibs::fault {

class FaultInjector {
 public:
  // `stats` may be null (faults still apply; no recovery windows).
  FaultInjector(Network* network, FaultPlan plan, RunStats* stats = nullptr)
      : network_(network), plan_(std::move(plan)), stats_(stats) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Validates the plan and schedules all events. Call once, before (or at)
  // the earliest event time; events in the past are fatal.
  void Start();

  uint64_t events_scheduled() const { return events_scheduled_; }
  uint64_t events_applied() const { return events_applied_; }

 private:
  void Validate(const FaultEvent& event) const;
  void Apply(const FaultEvent& event);

  Network* network_;
  FaultPlan plan_;
  RunStats* stats_;
  uint64_t events_scheduled_ = 0;
  uint64_t events_applied_ = 0;
};

}  // namespace dibs::fault

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
