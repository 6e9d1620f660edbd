// Declarative fault schedule: WHAT breaks WHEN, independent of any live
// simulation. A FaultPlan is plain data — it can sit inside an
// ExperimentConfig, be copied per sweep point, and be mutated by sweep axes.
// The FaultInjector (fault_injector.h) compiles a plan into simulator events
// against a concrete Network. Because the plan is data and every random draw
// downstream (lossy links, jitter) comes from the simulator RNG, the same
// seed always produces the same fault schedule and the same tables.
//
// Supported faults (ISSUE: link down/up/flap, switch crash/restart,
// degraded links):
//   * LinkDown / LinkUp      — administrative link state
//   * LinkFlap               — expands to alternating down/up cycles
//   * SwitchCrash / SwitchRestart — node-level failure (all adjacent links
//                                   go down; the switch eats arrivals)
//   * DegradeLink / RestoreLink   — Bernoulli loss + extra RNG jitter

#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"
#include "src/topo/topology.h"

namespace dibs::fault {

enum class FaultKind : uint8_t {
  kLinkDown = 0,
  kLinkUp = 1,
  kSwitchCrash = 2,
  kSwitchRestart = 3,
  kDegradeLink = 4,
  kRestoreLink = 5,
};

const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  Time at;
  FaultKind kind = FaultKind::kLinkDown;
  int target = -1;              // link id (link faults) or switch node id
  double loss_probability = 0;  // kDegradeLink only
  Time extra_jitter;            // kDegradeLink only
};

class FaultPlan {
 public:
  // Fluent builders; each returns *this so plans read as schedules:
  //   plan.LinkDown(uplink, Time::Millis(20)).LinkUp(uplink, Time::Millis(60));
  FaultPlan& LinkDown(int link, Time at);
  FaultPlan& LinkUp(int link, Time at);

  // `cycles` down/up pairs: down at `first_down`, up `down_for` later, next
  // cycle `up_for` after that. Expanded eagerly into plain events.
  FaultPlan& LinkFlap(int link, Time first_down, Time down_for, Time up_for, int cycles);

  FaultPlan& SwitchCrash(int node, Time at);
  FaultPlan& SwitchRestart(int node, Time at);

  FaultPlan& DegradeLink(int link, Time at, double loss_probability, Time extra_jitter);
  FaultPlan& RestoreLink(int link, Time at);

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  // Events ordered by (time, insertion order) — the order the injector
  // schedules them in, stable under equal timestamps.
  std::vector<FaultEvent> Sorted() const;

 private:
  std::vector<FaultEvent> events_;
};

// --- Topology helpers for targeting faults ---

// ToR node id of host `h` (its single NIC neighbor). Fatal if `h` is invalid.
int TorOf(const Topology& topo, HostId h);

// Links from `node` to switch-kind neighbors, in port order (e.g. a ToR's
// uplinks to the aggregation layer).
std::vector<int> SwitchFacingLinks(const Topology& topo, int node);

}  // namespace dibs::fault

#endif  // SRC_FAULT_FAULT_PLAN_H_
