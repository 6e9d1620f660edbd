// Overload-protection configuration: the detour-storm circuit breaker, the
// adaptive detour-TTL clamp, and the collapse watchdog share one config
// block so a scheme preset can switch the whole guard on with one field and
// the journal digest can mix every result-shaping switch in one place.
//
// The guard exists because DIBS has a breaking point (§5.5 / Figure 14):
// past a critical query rate, detoured packets cannot leave the network
// before the next burst arrives, so detours amplify load instead of
// absorbing it. The guard detects that regime per switch and degrades to
// plain drop-tail until the pressure subsides.
//
// Only the three switches are configurable. The thresholds below were tuned
// once against the fig14 sweep and no caller varies them, so they are
// constants; tests derive their inputs from them.
//
// Every decision below is driven by the simulation clock and per-switch
// packet counters only — no wall clocks, no unseeded randomness — so a
// guarded run is bit-identical across DIBS_JOBS worker counts, process
// isolation, and journal-resume boundaries.

#ifndef SRC_GUARD_GUARD_CONFIG_H_
#define SRC_GUARD_GUARD_CONFIG_H_

#include <cstdint>

#include "src/sim/time.h"

namespace dibs {

// Breaker states. The cycle is ARMED → SUPPRESSED → PROBING → ARMED (or
// PROBING → SUPPRESSED when the probe window shows pressure is still high).
enum class GuardState : uint8_t {
  kArmed = 0,       // detouring enabled, pressure below trip thresholds
  kSuppressed = 1,  // breaker open: detour requests drop as guard-suppressed
  kProbing = 2,     // limited probe detours test whether pressure subsided
};

inline constexpr size_t kNumGuardStates = 3;

// ---- Circuit breaker (per switch) ----
// Counters roll up into EWMAs once per window, on a fabric-wide tick. The
// window is deliberately longer than one incast burst: a healthy 40-degree
// burst legitimately detours half its packets for a couple of milliseconds,
// and averaging over 8ms keeps those spikes from tripping the breaker while
// a sustained storm still crosses the line within two to three windows.
inline constexpr Time kGuardWindow = Time::Millis(8);
inline constexpr double kGuardEwmaAlpha = 0.5;  // weight of the newest window

// Trip threshold (evaluated at tick, only when the window saw at least
// kGuardMinWindowPackets): detour rate = detour decisions (incl. suppressed
// attempts) per packet handled. Tuned against the fig14 sweep: at 6000 qps
// (stressed but sustainable) the breaker stays quiet and guarded QCT stays
// well under DCTCP's; at 18000 qps it still suppresses the detour storm
// before the collapse watchdog's verdict lands (EXPERIMENTS.md "Reproducing
// collapse and recovery").
inline constexpr double kGuardTripDetourRate = 0.45;
inline constexpr uint64_t kGuardMinWindowPackets = 64;

// Hysteresis: PROBING re-arms only once the detour-rate EWMA falls below
// this line.
inline constexpr double kGuardRearmDetourRate = 0.20;
static_assert(kGuardRearmDetourRate < kGuardTripDetourRate,
              "guard hysteresis requires the re-arm line below the trip line");

// Dwell in SUPPRESSED before probing again, and the number of probe detours
// PROBING may admit per window while it measures.
inline constexpr Time kGuardSuppressHold = Time::Millis(4);
inline constexpr uint64_t kGuardProbeBudget = 32;

// ---- Adaptive detour TTL ----
// The fabric-wide detour-pressure EWMA (detour decisions per handled packet
// across every switch) linearly tightens the per-packet detour budget from
// kTtlBudgetMax (pressure <= onset) down to kTtlBudgetMin (pressure >=
// full). A packet whose detour_count has reached the current budget drops
// as guard-ttl-clamped instead of detouring again. The pressure band starts
// above the detour rate a busy-but-healthy fabric sustains (~0.15 at 6000
// qps) so the clamp only engages once detours stop paying for themselves.
inline constexpr uint16_t kTtlBudgetMax = 64;
inline constexpr uint16_t kTtlBudgetMin = 16;
inline constexpr double kTtlPressureOnset = 0.20;
inline constexpr double kTtlPressureFull = 0.70;
static_assert(kTtlBudgetMin <= kTtlBudgetMax, "adaptive TTL budget range is inverted");
static_assert(kTtlPressureOnset < kTtlPressureFull, "adaptive TTL pressure band is empty");

// ---- Collapse watchdog (harness level) ----
// Samples the run's flow completions every kCollapseWindow (the fig14
// signature: flows stop finishing while raw delivered packets stay pinned at
// downlink capacity). After the peak window rate is established (>=
// kCollapseMinPeak in some window), kCollapseConsecutive windows in a row
// below kCollapseFraction * peak mark the run as collapsed.
inline constexpr Time kCollapseWindow = Time::Millis(10);
inline constexpr double kCollapseFraction = 0.5;
inline constexpr int kCollapseConsecutive = 3;
inline constexpr uint64_t kCollapseMinPeak = 50;

struct GuardConfig {
  // Master switch for the per-switch circuit breaker. Off by default: an
  // unguarded run is byte-identical to the pre-guard simulator.
  bool enabled = false;

  // Adaptive detour TTL (see above). Without it the per-packet detour
  // budget is unlimited.
  bool adaptive_ttl = false;

  // Collapse watchdog (see above); it records, never aborts. Independent of
  // `enabled` so an unguarded run can still be diagnosed (the CI negative
  // test relies on exactly that).
  bool watchdog = false;
};

}  // namespace dibs

#endif  // SRC_GUARD_GUARD_CONFIG_H_
