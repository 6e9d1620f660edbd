#include "src/core/detour_policy.h"

#include <algorithm>

#include "src/util/logging.h"

namespace dibs {

uint16_t RandomDetour::ChoosePort(const DetourContext& ctx, Rng& rng) {
  const auto& candidates = ctx.candidates;
  const auto pick =
      static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1));
  return candidates[pick].port;
}

uint16_t LoadAwareDetour::ChoosePort(const DetourContext& ctx, Rng& rng) {
  size_t best_len = SIZE_MAX;
  int64_t ties = 0;
  for (const DetourCandidate& c : ctx.candidates) {
    if (c.queue_len < best_len) {
      best_len = c.queue_len;
      ties = 0;
    }
    if (c.queue_len == best_len) {
      ++ties;
    }
  }
  int64_t pick = rng.UniformInt(0, ties - 1);
  for (const DetourCandidate& c : ctx.candidates) {
    if (c.queue_len == best_len && pick-- == 0) {
      return c.port;
    }
  }
  DIBS_LOG(kFatal) << "load-aware detour lost its shortest queue";
  return 0;
}

uint16_t FlowBasedDetour::ChoosePort(const DetourContext& ctx, Rng& rng) {
  DIBS_DCHECK(ctx.packet != nullptr);
  // Hash (flow, node) so one flow leaves one switch through a consistent
  // detour port, but different switches decorrelate.
  uint64_t x = ctx.packet->flow * 0xD6E8FEB86659FD93ull +
               static_cast<uint64_t>(ctx.node) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 32;
  x *= 0xD6E8FEB86659FD93ull;
  x ^= x >> 32;
  return ctx.candidates[x % ctx.candidates.size()].port;
}

bool ProbabilisticDetour::ShouldDetourEarly(const DetourContext& ctx, Rng& rng) {
  if (ctx.desired_queue_cap == 0) {
    return false;  // unbounded queue never triggers early detouring
  }
  DIBS_DCHECK(ctx.packet != nullptr);
  // Query traffic (high priority per §7) is only detoured when the queue is
  // actually full; background and long-lived traffic starts moving aside once
  // occupancy passes the onset, with probability ramping linearly to 1.
  if (ctx.packet->traffic_class == TrafficClass::kQuery) {
    return false;
  }
  const double occupancy =
      static_cast<double>(ctx.desired_queue_len) / static_cast<double>(ctx.desired_queue_cap);
  if (occupancy < onset_) {
    return false;
  }
  const double p = (occupancy - onset_) / (1.0 - onset_);
  return rng.Bernoulli(p);
}

uint16_t ProbabilisticDetour::ChoosePort(const DetourContext& ctx, Rng& rng) {
  // Port selection itself is load-aware-ish: prefer emptier queues by
  // weighting each candidate by its free space.
  const auto weight = [](const DetourCandidate& c) {
    const double cap = c.queue_cap == 0 ? static_cast<double>(c.queue_len + 64)
                                        : static_cast<double>(c.queue_cap);
    return std::max(1.0, cap - static_cast<double>(c.queue_len));
  };
  double total_weight = 0.0;
  for (const DetourCandidate& c : ctx.candidates) {
    total_weight += weight(c);
  }
  double draw = rng.UniformDouble() * total_weight;
  for (const DetourCandidate& c : ctx.candidates) {
    draw -= weight(c);
    if (draw <= 0.0) {
      return c.port;
    }
  }
  return ctx.candidates.back().port;
}

std::unique_ptr<DetourPolicy> MakeDetourPolicy(const std::string& name) {
  if (name == "none") {
    return nullptr;
  }
  if (name == "random") {
    return std::make_unique<RandomDetour>();
  }
  if (name == "load-aware") {
    return std::make_unique<LoadAwareDetour>();
  }
  if (name == "flow-based") {
    return std::make_unique<FlowBasedDetour>();
  }
  if (name == "probabilistic") {
    return std::make_unique<ProbabilisticDetour>();
  }
  DIBS_LOG(kFatal) << "unknown detour policy: " << name;
  return nullptr;
}

}  // namespace dibs
