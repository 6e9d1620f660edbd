// Oracle suite: what "this fuzz case passed" means.
//
// Every spec runs under DIBS_VALIDATE (conservation ledger + quiescence —
// the runtime invariants), then through a set of metamorphic oracles that
// each re-execute the scenario under a transformation that must not change
// results, and compare canonicalized RunRecord encodings byte-for-byte:
//
//   validate     baseline sweep finishes ok (no ValidationError, no crash,
//                no timeout) under the conservation ledger
//   sanity       bounds on the baseline records: completed <= launched,
//                fractions in [0,1], per-reason drops sum to total drops,
//                policy "none" implies zero detours, guard off implies zero
//                guard counters
//   determinism  re-running the baseline reproduces it exactly
//   jobs         DIBS_JOBS=2 sweep == jobs=1 sweep
//   trace        a run with tracing and the fabric monitor on == the
//                run without them (observer purity)
//   isolation    process-forked sweep == in-thread sweep        [heavy]
//   resume       kill-and-resume from a truncated journal == an
//                uninterrupted sweep                             [heavy]
//
// Heavy oracles fork processes and touch the filesystem, so they run every
// `heavy_every`-th case; the light set runs on every case. Canonical form
// zeroes host-side timing (wall_ms, events_per_sec) — everything else,
// including every simulation counter, must match exactly.

#ifndef SRC_CHAOS_ORACLES_H_
#define SRC_CHAOS_ORACLES_H_

#include <string>
#include <vector>

#include "src/chaos/chaos_spec.h"
#include "src/exp/run_record.h"

namespace dibs::chaos {

struct OracleOptions {
  // Per-run simulator event budget (0 = unbounded) — the same cooperative
  // budget the sweep engine enforces, so a runaway case dies
  // deterministically, not by wall clock.
  uint64_t event_budget = 20000000;
  // Per-run wall-clock ceiling in seconds (0 = none); a backstop for truly
  // wedged runs, far above any budget-respecting case.
  double run_timeout_sec = 120;
  // Run the heavy oracles (isolation, resume) on every Nth case; 0
  // disables them entirely.
  int heavy_every = 4;
};

struct OracleVerdict {
  bool passed = true;
  std::string oracle;  // failing oracle name; empty when passed
  std::string detail;  // human-readable failure description
};

// Runs the full oracle suite against `spec`. `force_heavy` runs the heavy
// oracles regardless of heavy_every (replay and shrinking use it so a
// failure found by a heavy oracle stays reproducible).
OracleVerdict CheckSpec(const ChaosSpec& spec, const OracleOptions& options,
                        bool force_heavy = false);

// Re-checks a single oracle by name — the shrinker's inner loop, which must
// only pay for the oracle that failed. Unknown names fail fast.
OracleVerdict CheckOracle(const ChaosSpec& spec, const std::string& oracle,
                          const OracleOptions& options);

// Canonical byte encoding of a record for oracle comparison: EncodeRunRecord
// with host-side timing (wall_ms, events_per_sec) zeroed; `drop_trace_only`
// additionally drops what only observed runs fill: loop_packets (tracing)
// and the four FabricMonitor series.
std::string CanonicalRecord(RunRecord record, bool drop_trace_only = false);

}  // namespace dibs::chaos

#endif  // SRC_CHAOS_ORACLES_H_
