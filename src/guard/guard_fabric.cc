#include "src/guard/guard_fabric.h"

#include <algorithm>

#include "src/util/logging.h"

namespace dibs {

GuardFabric::GuardFabric(Simulator* sim, bool adaptive_ttl, std::vector<int> switch_ids)
    : sim_(sim),
      adaptive_ttl_(adaptive_ttl),
      detour_budget_(adaptive_ttl ? kTtlBudgetMax : UINT16_MAX) {
  std::sort(switch_ids.begin(), switch_ids.end());
  switch_ids.erase(std::unique(switch_ids.begin(), switch_ids.end()), switch_ids.end());
  if (!switch_ids.empty()) {
    DIBS_CHECK(switch_ids.front() >= 0) << "negative switch id " << switch_ids.front();
    guard_index_.assign(static_cast<size_t>(switch_ids.back()) + 1, -1);
  }
  guards_.reserve(switch_ids.size());
  for (const int node : switch_ids) {
    guard_index_[static_cast<size_t>(node)] = static_cast<int>(guards_.size());
    guards_.emplace_back(node, DetourGuard(sim_->Now()));
  }
}

void GuardFabric::Start(Time stop_time) {
  if (started_) {
    return;
  }
  started_ = true;
  stop_time_ = stop_time;
  sim_->Schedule(kGuardWindow, [this] { Tick(); });
}

std::optional<DropReason> GuardFabric::AdmitDetour(int node, uint16_t detour_count) {
  if (detour_count >= detour_budget_) {
    // Still demand: a clamped packet wanted a detour, and the breaker's
    // pressure signal must see it even though the clamp fired first.
    GuardAt(node).AdmitDetour();
    ++window_fabric_detours_;
    return DropReason::kGuardTtlClamped;
  }
  if (!GuardAt(node).AdmitDetour()) {
    ++window_fabric_detours_;
    return DropReason::kGuardSuppressed;
  }
  ++window_fabric_detours_;
  return std::nullopt;
}

DetourGuard& GuardFabric::GuardAt(int node) {
  DIBS_CHECK(HasGuard(node)) << "no guard for node " << node;
  return guards_[static_cast<size_t>(guard_index_[static_cast<size_t>(node)])].second;
}

void GuardFabric::Tick() {
  const Time now = sim_->Now();

  // Fabric pressure first, so this window's adaptive budget is in force for
  // the packets the next window handles.
  if (window_fabric_packets_ >= kGuardMinWindowPackets) {
    const double sample = static_cast<double>(window_fabric_detours_) /
                          static_cast<double>(window_fabric_packets_);
    ewma_fabric_pressure_ =
        kGuardEwmaAlpha * sample + (1.0 - kGuardEwmaAlpha) * ewma_fabric_pressure_;
  }
  window_fabric_packets_ = 0;
  window_fabric_detours_ = 0;

  if (adaptive_ttl_) {
    const double t = std::clamp((ewma_fabric_pressure_ - kTtlPressureOnset) /
                                    (kTtlPressureFull - kTtlPressureOnset),
                                0.0, 1.0);
    const double budget = static_cast<double>(kTtlBudgetMax) -
                          t * static_cast<double>(kTtlBudgetMax - kTtlBudgetMin);
    detour_budget_ = static_cast<uint16_t>(budget);
  }

  // Per-switch rollup + state machine, node-id order.
  for (auto& [node, guard] : guards_) {
    const GuardState before = guard.OnWindowTick(now);
    if (guard.state() != before && on_transition_) {
      on_transition_(node, before, guard.state());
    }
  }

  if (now < stop_time_) {
    sim_->Schedule(kGuardWindow, [this] { Tick(); });
  }
}

}  // namespace dibs
