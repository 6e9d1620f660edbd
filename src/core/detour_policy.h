// Detour-induced buffer sharing (DIBS) — the paper's core mechanism.
//
// §2's rule: when a packet's desired output queue is full, detour it to a
// random eligible port. Which ports are eligible is not the policy's call:
// SwitchNode applies §2's rule once per decision and hands the policy only
// the candidates that pass it — switch-facing ports other than the desired
// one, whose link is up, whose transmitter is not paused and whose queue has
// room, in port order. The input port is a candidate (packets may bounce
// straight back, Fig 1). The policy only picks among the candidates, and
// only once the desired queue has refused the packet. Policy "none" is no
// policy at all: the switch drops on overflow.

#ifndef SRC_CORE_DETOUR_POLICY_H_
#define SRC_CORE_DETOUR_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "src/util/rng.h"

namespace dibs {

enum class DetourPolicy {
  kNone,       // "none": DIBS off
  kRandom,     // "random": the paper's default, parameterless by design
  kLoadAware,  // "load-aware": §7 "Load-aware detouring"
};

// One port a packet may detour to.
struct DetourCandidate {
  uint16_t port = 0;
  size_t queue_len = 0;
};

// The policy called `name` ("none", "random" or "load-aware"); nullopt for
// any other name.
std::optional<DetourPolicy> DetourPolicyFromName(std::string_view name);

// Picks the detour port among `candidates`, which must be non-empty, with
// one draw from `rng`: uniformly at random (kRandom), or uniformly among the
// candidates with the shortest queue (kLoadAware). `policy` must not be
// kNone.
uint16_t ChooseDetourPort(DetourPolicy policy, std::span<const DetourCandidate> candidates,
                          Rng& rng);

}  // namespace dibs

#endif  // SRC_CORE_DETOUR_POLICY_H_
