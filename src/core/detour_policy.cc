#include "src/core/detour_policy.h"

#include "src/util/logging.h"

namespace dibs {

std::optional<DetourPolicy> DetourPolicyFromName(std::string_view name) {
  if (name == "none") {
    return DetourPolicy::kNone;
  }
  if (name == "random") {
    return DetourPolicy::kRandom;
  }
  if (name == "load-aware") {
    return DetourPolicy::kLoadAware;
  }
  return std::nullopt;
}

uint16_t ChooseDetourPort(DetourPolicy policy, std::span<const DetourCandidate> candidates,
                          Rng& rng) {
  DIBS_DCHECK(policy != DetourPolicy::kNone && !candidates.empty());
  if (policy == DetourPolicy::kRandom) {
    const auto pick =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1));
    return candidates[pick].port;
  }
  size_t best_len = SIZE_MAX;
  int64_t ties = 0;
  for (const DetourCandidate& c : candidates) {
    if (c.queue_len < best_len) {
      best_len = c.queue_len;
      ties = 0;
    }
    if (c.queue_len == best_len) {
      ++ties;
    }
  }
  int64_t pick = rng.UniformInt(0, ties - 1);
  for (const DetourCandidate& c : candidates) {
    if (c.queue_len == best_len && pick-- == 0) {
      return c.port;
    }
  }
  DIBS_LOG(kFatal) << "load-aware detour lost its shortest queue";
  return 0;
}

}  // namespace dibs
