#include "src/guard/guard_fabric.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace dibs {

GuardFabric::GuardFabric(Simulator* sim, const GuardConfig& config,
                         std::vector<int> switch_ids)
    : sim_(sim), config_(config) {
  DIBS_CHECK(config_.rearm_detour_rate < config_.trip_detour_rate)
      << "guard hysteresis requires rearm_detour_rate < trip_detour_rate";
  DIBS_CHECK(config_.ttl_budget_min <= config_.ttl_budget_max)
      << "adaptive TTL budget range is inverted";
  detour_budget_ = config_.adaptive_ttl ? config_.ttl_budget_max : UINT16_MAX;
  std::sort(switch_ids.begin(), switch_ids.end());
  switch_ids.erase(std::unique(switch_ids.begin(), switch_ids.end()), switch_ids.end());
  if (!switch_ids.empty()) {
    DIBS_CHECK(switch_ids.front() >= 0) << "negative switch id " << switch_ids.front();
    guard_index_.assign(static_cast<size_t>(switch_ids.back()) + 1, -1);
  }
  guards_.reserve(switch_ids.size());
  for (const int node : switch_ids) {
    guard_index_[static_cast<size_t>(node)] = static_cast<int>(guards_.size());
    guards_.emplace_back(node, DetourGuard(config_, sim_->Now()));
  }
}

void GuardFabric::Start(Time stop_time) {
  if (started_) {
    return;
  }
  started_ = true;
  stop_time_ = stop_time;
  tick_at_ = sim_->Now() + config_.window;
  tick_id_ = sim_->Schedule(config_.window, [this] { Tick(); });
}

std::optional<DropReason> GuardFabric::AdmitDetour(int node, uint16_t detour_count) {
  if (detour_count >= detour_budget_) {
    ++ttl_clamped_;
    // Still demand: a clamped packet wanted a detour, and the breaker's
    // pressure signal must see it even though the clamp fired first.
    GuardAt(node).AdmitDetour();
    ++window_fabric_detours_;
    return DropReason::kGuardTtlClamped;
  }
  if (!GuardAt(node).AdmitDetour()) {
    ++suppressed_denials_;
    ++window_fabric_detours_;
    return DropReason::kGuardSuppressed;
  }
  ++window_fabric_detours_;
  return std::nullopt;
}

uint64_t GuardFabric::TotalTrips() const {
  uint64_t total = 0;
  for (const auto& [node, guard] : guards_) {
    total += guard.trips();
  }
  return total;
}

Time GuardFabric::TotalSuppressed(Time now) const {
  Time total;
  for (const auto& [node, guard] : guards_) {
    total = total + guard.SuppressedFor(now);
  }
  return total;
}

DetourGuard& GuardFabric::GuardAt(int node) {
  DIBS_CHECK(HasGuard(node)) << "no guard for node " << node;
  return guards_[static_cast<size_t>(guard_index_[static_cast<size_t>(node)])].second;
}

const DetourGuard& GuardFabric::GuardAt(int node) const {
  DIBS_CHECK(HasGuard(node)) << "no guard for node " << node;
  return guards_[static_cast<size_t>(guard_index_[static_cast<size_t>(node)])].second;
}

void GuardFabric::Tick() {
  const Time now = sim_->Now();
  tick_id_ = kInvalidEventId;

  // Fabric pressure first, so this window's adaptive budget is in force for
  // the packets the next window handles.
  if (window_fabric_packets_ >= config_.min_window_packets) {
    const double sample = static_cast<double>(window_fabric_detours_) /
                          static_cast<double>(window_fabric_packets_);
    ewma_fabric_pressure_ = config_.ewma_alpha * sample +
                            (1.0 - config_.ewma_alpha) * ewma_fabric_pressure_;
  }
  window_fabric_packets_ = 0;
  window_fabric_detours_ = 0;

  if (config_.adaptive_ttl) {
    const double onset = config_.ttl_pressure_onset;
    const double full = std::max(config_.ttl_pressure_full, onset + 1e-9);
    const double t =
        std::clamp((ewma_fabric_pressure_ - onset) / (full - onset), 0.0, 1.0);
    const double budget = static_cast<double>(config_.ttl_budget_max) -
                          t * static_cast<double>(config_.ttl_budget_max -
                                                  config_.ttl_budget_min);
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
    tick_at_ = now + config_.window;
    tick_id_ = sim_->Schedule(config_.window, [this] { Tick(); });
  }
}

void GuardFabric::CkptSave(json::Value* out) const {
  json::Value o = json::MakeObject();
  o.fields["started"] = json::MakeBool(started_);
  o.fields["stop"] = json::MakeInt(stop_time_.nanos());
  if (tick_id_ != kInvalidEventId) {
    o.fields["tick_at"] = json::MakeInt(tick_at_.nanos());
    o.fields["tick_id"] = json::MakeUint(tick_id_);
  }
  o.fields["wfp"] = json::MakeUint(window_fabric_packets_);
  o.fields["wfd"] = json::MakeUint(window_fabric_detours_);
  o.fields["ewma"] = json::MakeNum(ewma_fabric_pressure_);
  o.fields["budget"] = json::MakeUint(detour_budget_);
  o.fields["ttl_clamped"] = json::MakeUint(ttl_clamped_);
  o.fields["denials"] = json::MakeUint(suppressed_denials_);
  json::Value rows = json::MakeArray();
  for (const auto& [node, guard] : guards_) {
    json::Value e = json::MakeObject();
    e.fields["node"] = json::MakeInt(node);
    json::Value g;
    guard.CkptSave(&g);
    e.fields["g"] = std::move(g);
    rows.items.push_back(std::move(e));
  }
  o.fields["guards"] = std::move(rows);
  *out = std::move(o);
}

void GuardFabric::CkptRestore(const json::Value& in) {
  json::ReadBool(in, "started", &started_);
  stop_time_ = Time::Nanos(json::ReadInt64(in, "stop", 0));
  json::ReadUint(in, "wfp", &window_fabric_packets_);
  json::ReadUint(in, "wfd", &window_fabric_detours_);
  json::ReadDouble(in, "ewma", &ewma_fabric_pressure_);
  json::ReadUint(in, "budget", &detour_budget_);
  json::ReadUint(in, "ttl_clamped", &ttl_clamped_);
  json::ReadUint(in, "denials", &suppressed_denials_);
  const json::Value* rows = json::Find(in, "guards");
  if (rows == nullptr || rows->kind != json::Value::Kind::kArray ||
      rows->items.size() != guards_.size()) {
    throw CodecError("guard.guards", "breaker set does not match the topology");
  }
  for (const json::Value& e : rows->items) {
    int node = -1;
    json::ReadInt(e, "node", &node);
    const json::Value* g = json::Find(e, "g");
    if (!HasGuard(node) || g == nullptr) {
      throw CodecError("guard.guards", "breaker for an unknown switch");
    }
    GuardAt(node).CkptRestore(*g);
  }
  if (json::Find(in, "tick_id") != nullptr) {
    const uint64_t id = json::ReadUint64(in, "tick_id", 0);
    if (id == 0) {
      throw CodecError("guard.tick_id", "armed tick with invalid event id");
    }
    tick_at_ = Time::Nanos(json::ReadInt64(in, "tick_at", 0));
    tick_id_ = static_cast<EventId>(id);
    sim_->RestoreEventAt(tick_at_, tick_id_, [this] { Tick(); });
  }
}

void GuardFabric::CkptPendingEvents(std::vector<ckpt::EventKey>* out) const {
  if (tick_id_ != kInvalidEventId) {
    out->emplace_back(tick_at_, tick_id_);
  }
}

}  // namespace dibs
