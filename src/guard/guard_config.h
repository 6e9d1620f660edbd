// Overload-protection configuration: the detour-storm circuit breaker, the
// adaptive detour-TTL clamp, and the collapse watchdog share one config
// block so a scheme preset can switch the whole guard on with one field and
// the journal digest can mix every result-shaping knob in one place.
//
// The guard exists because DIBS has a breaking point (§5.5 / Figure 14):
// past a critical query rate, detoured packets cannot leave the network
// before the next burst arrives, so detours amplify load instead of
// absorbing it. The guard detects that regime per switch and degrades to
// plain drop-tail until the pressure subsides.
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

struct GuardConfig {
  // Master switch for the per-switch circuit breaker. Off by default: an
  // unguarded run is byte-identical to the pre-guard simulator.
  bool enabled = false;

  // ---- Circuit breaker (per switch) ----
  // Counters roll up into EWMAs once per window, on a fabric-wide tick.
  // The window is deliberately longer than one incast burst: a healthy
  // 40-degree burst legitimately detours half its packets for a couple of
  // milliseconds, and averaging over 8ms keeps those spikes from tripping
  // the breaker while a sustained storm still crosses the line within two
  // to three windows.
  Time window = Time::Millis(8);
  double ewma_alpha = 0.5;  // weight of the newest window in the EWMA

  // Trip threshold (evaluated at tick, only when the window saw at least
  // min_window_packets): detour_rate = detour decisions (incl. suppressed
  // attempts) per packet handled. Tuned against the fig14 sweep: at 6000
  // qps (stressed but sustainable) the breaker stays quiet and guarded QCT
  // stays well under DCTCP's; at 18000 qps it still suppresses the detour
  // storm before the collapse watchdog's verdict lands (EXPERIMENTS.md
  // "Reproducing collapse and recovery").
  double trip_detour_rate = 0.45;
  uint64_t min_window_packets = 64;

  // Hysteresis: PROBING re-arms only once the detour-rate EWMA falls below
  // rearm_detour_rate (must sit below trip_detour_rate).
  double rearm_detour_rate = 0.20;

  // Dwell in SUPPRESSED before probing again, and the number of probe
  // detours PROBING may admit per window while it measures.
  Time suppress_hold = Time::Millis(4);
  uint64_t probe_budget = 32;

  // ---- Adaptive detour TTL ----
  // When on, the fabric-wide detour-pressure EWMA (detour decisions per
  // handled packet across every switch) linearly tightens the per-packet
  // detour budget from ttl_budget_max (pressure <= onset) down to
  // ttl_budget_min (pressure >= full). A packet whose detour_count has
  // reached the current budget drops as guard-ttl-clamped instead of
  // detouring again.
  // The pressure band starts above the detour rate a busy-but-healthy
  // fabric sustains (~0.15 at 6000 qps) so the clamp only engages once
  // detours stop paying for themselves.
  bool adaptive_ttl = false;
  uint16_t ttl_budget_max = 64;
  uint16_t ttl_budget_min = 16;
  double ttl_pressure_onset = 0.20;
  double ttl_pressure_full = 0.70;

  // ---- Collapse watchdog (harness level) ----
  // Samples a goodput counter every collapse_window — flow completions
  // when a flow tracker runs (the fig14 signature: flows stop finishing
  // while raw delivered packets stay pinned at downlink capacity),
  // delivered packets otherwise. After the peak window rate is established
  // (>= collapse_min_peak in some window), collapse_consecutive windows in
  // a row below collapse_fraction * peak mark the run as collapsed. Under
  // DIBS_STRICT_COLLAPSE=1 detection throws CollapseError instead of just
  // recording. Independent of `enabled` so an unguarded run can still be
  // diagnosed (the CI negative test relies on exactly that).
  bool watchdog = false;
  Time collapse_window = Time::Millis(10);
  double collapse_fraction = 0.5;
  int collapse_consecutive = 3;
  uint64_t collapse_min_peak = 50;
};

}  // namespace dibs

#endif  // SRC_GUARD_GUARD_CONFIG_H_
