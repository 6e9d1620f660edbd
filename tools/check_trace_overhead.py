#!/usr/bin/env python3
"""Tracing-off overhead guard for the simulator hot path.

The instrumentation contract is "free when off": with no subscribers, each
per-hop hook is one branch and builds no event. This guard enforces that
by ratcheting BM_SwitchPacketHop (google-benchmark JSON output) against a
per-machine baseline cached in the build tree:

  - baseline missing  -> record current timings, pass (first run on a machine)
  - current > baseline * (1 + threshold) -> FAIL (hot path regressed)
  - current < baseline -> ratchet the baseline down (machine got warmer/faster)

Wall-clock numbers are not comparable across machines, so the baseline lives
next to the build tree (gitignored), mirroring how ci.sh reuses incremental
build directories. The min across --benchmark_repetitions is compared, which
is the standard way to cut scheduler noise out of micro-benchmarks.

Usage:
  check_trace_overhead.py <current.json> <baseline.json> [threshold_pct] [name...]

  current.json   google-benchmark --benchmark_format=json output
  baseline.json  cached baseline; created if absent, ratcheted down if beaten
  threshold_pct  allowed regression, default 2.0
  name...        benchmark names to guard; default BM_SwitchPacketHop
"""

import json
import os
import sys


def min_real_times(report_path):
    """Map benchmark name -> min real_time (ns) across repetition runs."""
    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    mins = {}
    for b in report.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev); compare raw repetitions.
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("run_name", b["name"])
        t = float(b["real_time"])
        if name not in mins or t < mins[name]:
            mins[name] = t
    return mins


def main():
    if len(sys.argv) < 3:
        print(__doc__.strip())
        return 2
    current_path, baseline_path = sys.argv[1], sys.argv[2]
    threshold_pct = float(sys.argv[3]) if len(sys.argv) > 3 else 2.0
    guarded = sys.argv[4:] or ["BM_SwitchPacketHop"]

    current = min_real_times(current_path)
    missing = [n for n in guarded if n not in current]
    if missing:
        print("trace-overhead: benchmark(s) %s absent from %s" %
              (", ".join(missing), current_path))
        return 2

    if not os.path.exists(baseline_path):
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump(current, f, indent=2, sort_keys=True)
        print("trace-overhead: baseline recorded at %s (first run, no check)" %
              baseline_path)
        return 0

    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)

    failed = False
    ratcheted = dict(baseline)
    for name in guarded:
        cur = current[name]
        base = baseline.get(name)
        if base is None:
            ratcheted[name] = cur
            print("trace-overhead: %s added to baseline (%.1f ns)" % (name, cur))
            continue
        delta_pct = (cur - base) / base * 100.0
        if delta_pct > threshold_pct:
            print("trace-overhead: FAIL %s %.1f ns vs baseline %.1f ns "
                  "(+%.2f%% > %.1f%% allowed)" %
                  (name, cur, base, delta_pct, threshold_pct))
            failed = True
        else:
            print("trace-overhead: OK %s %.1f ns vs baseline %.1f ns (%+.2f%%)" %
                  (name, cur, base, delta_pct))
            if cur < base:
                ratcheted[name] = cur
    if not failed and ratcheted != baseline:
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump(ratcheted, f, indent=2, sort_keys=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
