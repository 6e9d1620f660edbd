// Detour-induced buffer sharing (DIBS) — the paper's core mechanism.
//
// A DetourPolicy answers two of §2's four questions: when to start
// detouring (ShouldDetourEarly, before the desired queue is full) and where
// to (ChoosePort). Which ports may take a detour is not the policy's call:
// SwitchNode applies §2's rule once per decision and hands the policy only
// the candidates that pass it — switch-facing ports other than the desired
// one, whose link is up, whose transmitter is not paused and whose queue has
// room, in port order. The input port is a candidate (packets may bounce
// straight back, Fig 1). Policy "none" is no policy at all: the switch drops
// on overflow. The paper's default policy is RandomDetour — parameterless by
// design.

#ifndef SRC_CORE_DETOUR_POLICY_H_
#define SRC_CORE_DETOUR_POLICY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "src/net/packet.h"
#include "src/util/rng.h"

namespace dibs {

// One port a packet may detour to.
struct DetourCandidate {
  uint16_t port = 0;
  size_t queue_len = 0;
  size_t queue_cap = 0;  // 0 = unbounded
};

struct DetourContext {
  int node = -1;  // switch making the decision
  size_t desired_queue_len = 0;
  size_t desired_queue_cap = 0;
  const Packet* packet = nullptr;
  // Non-empty whenever ChoosePort runs; empty for ShouldDetourEarly.
  std::span<const DetourCandidate> candidates;
};

class DetourPolicy {
 public:
  virtual ~DetourPolicy() = default;

  virtual std::string name() const = 0;

  // Called while the desired queue still has room; returning true forces a
  // detour anyway. Only ProbabilisticDetour uses this (§7). Default: never.
  virtual bool ShouldDetourEarly(const DetourContext& ctx, Rng& rng) { return false; }

  // Picks the detour port from ctx.candidates.
  virtual uint16_t ChoosePort(const DetourContext& ctx, Rng& rng) = 0;
};

// The paper's default: uniform random among the candidates. No parameters.
class RandomDetour : public DetourPolicy {
 public:
  std::string name() const override { return "random"; }
  uint16_t ChoosePort(const DetourContext& ctx, Rng& rng) override;
};

// §7 "Load-aware detouring": pick the candidate with the shortest queue;
// ties broken uniformly at random.
class LoadAwareDetour : public DetourPolicy {
 public:
  std::string name() const override { return "load-aware"; }
  uint16_t ChoosePort(const DetourContext& ctx, Rng& rng) override;
};

// §7 "Flow-based detouring": hash the flow id over the candidates so all
// detoured packets of one flow leave through a consistent port.
class FlowBasedDetour : public DetourPolicy {
 public:
  std::string name() const override { return "flow-based"; }
  uint16_t ChoosePort(const DetourContext& ctx, Rng& rng) override;
};

// §7 "Probabilistic detouring": detour probability rises with the desired
// queue's occupancy, and lower-priority traffic detours first; query traffic
// is treated as high priority (detours only when the queue is truly full).
class ProbabilisticDetour : public DetourPolicy {
 public:
  // `onset_fraction`: occupancy at which low-priority detouring begins.
  explicit ProbabilisticDetour(double onset_fraction = 0.8) : onset_(onset_fraction) {}

  std::string name() const override { return "probabilistic"; }
  bool ShouldDetourEarly(const DetourContext& ctx, Rng& rng) override;
  uint16_t ChoosePort(const DetourContext& ctx, Rng& rng) override;

 private:
  double onset_;
};

// Factory by policy name ("random", "load-aware", "flow-based",
// "probabilistic"); "none" returns nullptr. Aborts on unknown names.
std::unique_ptr<DetourPolicy> MakeDetourPolicy(const std::string& name);

}  // namespace dibs

#endif  // SRC_CORE_DETOUR_POLICY_H_
