// GuardFabric: owns one DetourGuard per switch plus the fabric-wide
// adaptive-TTL state, and drives them all from a single repeating sim event.
//
// One tick per kGuardWindow walks the switches in node-id order
// (deterministic), rolls each guard's window into its EWMA, runs its state
// machine, and reports every transition through the callback the Network
// installs (which emits a kGuardTransition event). The same tick
// refreshes the fabric detour-pressure EWMA that the adaptive TTL clamp is
// derived from. Everything runs on the simulation clock with plain counter
// arithmetic — no RNG, no wall clock — so guarded runs stay bit-identical
// across DIBS_JOBS, process isolation, and journal resume.
//
// Layering: src/guard sits below src/device. The fabric never touches
// Network; SwitchNode pushes per-packet notes down and the Network receives
// transitions through the callback. The fabric keeps no tallies: trips,
// transitions and suppressed time are GuardRecorder's, derived from the
// transition events, and guard drops are DetourRecorder's.

#ifndef SRC_GUARD_GUARD_FABRIC_H_
#define SRC_GUARD_GUARD_FABRIC_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/guard/detour_guard.h"
#include "src/guard/guard_config.h"
#include "src/net/drop_reason.h"
#include "src/sim/simulator.h"

namespace dibs {

class GuardFabric {
 public:
  // (node, previous state, new state) — invoked from the tick event, in
  // node-id order, for every transition the tick produced.
  using TransitionCallback = std::function<void(int, GuardState, GuardState)>;

  GuardFabric(Simulator* sim, bool adaptive_ttl, std::vector<int> switch_ids);

  void set_transition_callback(TransitionCallback cb) { on_transition_ = std::move(cb); }

  // Begins the tick cadence; reschedules itself until `stop_time` (the
  // scenario passes duration + drain, mirroring the monitors).
  void Start(Time stop_time);

  // ---- Forwarding-path gate (called by SwitchNode) ----

  // The switch reached a detour decision point for a packet carrying
  // `detour_count` prior detours. Returns nullopt when the detour may
  // proceed, or the drop reason the packet must die with: guard-suppressed
  // (breaker open / probe budget spent) or guard-ttl-clamped (adaptive
  // budget exhausted). The TTL clamp is checked first — a packet over
  // budget must not consume the probe allowance.
  std::optional<DropReason> AdmitDetour(int node, uint16_t detour_count);

  // Cheap read for the early-detour (probabilistic) path: false while the
  // breaker has this switch suppressed.
  bool DetourEnabled(int node) const { return GuardAt(node).DetourEnabled(); }

  // Per-packet notes from the receive path.
  void NotePacket(int node) {
    GuardAt(node).NotePacket();
    ++window_fabric_packets_;
  }
  // A detour left a switch; feeds the fabric pressure only.
  void NoteDetour() { ++window_fabric_detours_; }

  // ---- Adaptive TTL ----

  // Current per-packet detour budget. Without the adaptive TTL the budget is
  // unlimited (UINT16_MAX, far above any reachable detour_count: the hop
  // TTL bounds the packet's life first).
  uint16_t DetourBudget() const { return detour_budget_; }
  double FabricPressure() const { return ewma_fabric_pressure_; }

 private:
  bool HasGuard(int node) const {
    return node >= 0 && static_cast<size_t>(node) < guard_index_.size() &&
           guard_index_[static_cast<size_t>(node)] >= 0;
  }
  DetourGuard& GuardAt(int node);
  const DetourGuard& GuardAt(int node) const;
  void Tick();

  Simulator* sim_;
  bool adaptive_ttl_;
  // (node id, guard) per switch, in node-id order: ticks and transitions
  // walk it in that deterministic order.
  std::vector<std::pair<int, DetourGuard>> guards_;
  // node id -> index into guards_, -1 for nodes without a guard. Dense, so
  // the per-hop GuardAt is one indexed load.
  std::vector<int> guard_index_;
  TransitionCallback on_transition_;
  Time stop_time_;
  bool started_ = false;

  // Fabric-wide pressure: detour decisions per handled packet, across every
  // switch, smoothed with the same alpha as the per-switch signal.
  uint64_t window_fabric_packets_ = 0;
  uint64_t window_fabric_detours_ = 0;
  double ewma_fabric_pressure_ = 0;
  uint16_t detour_budget_;
};

}  // namespace dibs

#endif  // SRC_GUARD_GUARD_FABRIC_H_
