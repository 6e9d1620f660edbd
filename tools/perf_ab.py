#!/usr/bin/env python3
"""Alternating A/B timing of the benchmark: a base commit against the working tree.

    python3 tools/perf_ab.py --base HEAD~1 --workload incast_dibs \\
        [--pairs 10] [--seconds 10] [--seed 1] [--claim run_s] [--cache-dir DIR]

Exports --base with `git archive` into DIR/<sha> (outside the checkout, kept
for the next call), then runs `perfbench/run.py --trace 0` once in each tree
per pair, alternating which side runs first so a drift in host speed lands on
both sides alike. Each tree builds its own .bench_build/; one untimed warm-up
run per side does the building before the first pair.

For each end-to-end metric of BENCHMARK.json it prints, per side, the median
of the runs' values with its quartiles, then the pairs the change wins (ties
count for neither side) and the base's interquartile range, and per side the
failed and attempted attempts. With --claim METRIC it states whether the
change wins at least 9 in 10 pairs on METRIC and its median beats the base's
by more than the base's interquartile range. It exits 1 if any run was not
correct, whatever the claim.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800
WIN_FRACTION = 0.9


def describe(values):
    """(q1, median, q3) of the values, with perfbench's quartile method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def improvement(base, change, better):
    """How much better `change` is than `base`; negative when worse."""
    return base - change if better == "lower" else change - base


def pair_wins(base, change, better):
    """(change wins, base wins) over the pairs; a tie counts for neither."""
    gaps = [improvement(b, c, better) for b, c in zip(base, change)]
    return sum(1 for g in gaps if g > 0), sum(1 for g in gaps if g < 0)


def claim_holds(base, change, better):
    """The change wins at least 9 in 10 pairs, and its median beats the base's
    by more than the base's interquartile range."""
    wins, _ = pair_wins(base, change, better)
    q1, median, q3 = describe(base)
    return (wins >= math.ceil(WIN_FRACTION * len(base)) and
            improvement(median, describe(change)[1], better) > q3 - q1)


def parse_result(stdout):
    """The JSON object perfbench/run.py prints as its last stdout line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def summarize(spec, runs):
    """The report's lines. `runs` maps "base"/"change" to the run results in
    pair order; `spec` is BENCHMARK.json."""
    out = []
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        for side in ("base", "change"):
            q1, median, q3 = describe(values[side])
            out.append(f"{name} [{metric['unit']}] {side:6}: median={median:.6g} "
                       f"q1={q1:.6g} q3={q3:.6g} n={len(values[side])}")
        wins, losses = pair_wins(values["base"], values["change"], better)
        q1, _, q3 = describe(values["base"])
        out.append(f"{name} pairs: change better in {wins}, worse in {losses}, "
                   f"tied in {len(values['base']) - wins - losses} of {len(values['base'])}; "
                   f"base IQR={q3 - q1:.6g} ({better} is better)")
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        correct = sum(1 for r in runs[side] if r["correct"])
        out.append(f"{side}: {failed}/{attempted} attempts failed; "
                   f"{correct}/{len(runs[side])} runs correct")
    return out


def resolve(ref):
    proc = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"perf_ab: cannot resolve {ref!r}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def export(sha, cache_dir):
    """The tree of commit `sha`, exported once into cache_dir/sha."""
    tree = cache_dir / sha
    done = tree / ".perf_ab_exported"
    if done.is_file():
        return tree
    shutil.rmtree(tree, ignore_errors=True)
    cache_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache_dir) as tmp:
        archive = Path(tmp) / "tree.tar"
        subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), sha],
                       cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tree)
    done.write_text(sha + "\n")
    return tree


def run_perfbench(tree, args, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perf_ab: perfbench failed in {tree} (exit {proc.returncode})")
    return parse_result(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim", help="end-to-end metric the change claims to improve")
    parser.add_argument("--cache-dir", type=Path,
                        default=Path(tempfile.gettempdir()) / "dibs-perf-ab",
                        help="where exported base trees are kept (outside the checkout)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.claim and args.claim not in [m["name"] for m in spec["end_to_end"]]:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric")
    cache_dir = args.cache_dir.resolve()
    if cache_dir == ROOT or ROOT in cache_dir.parents:
        parser.error("--cache-dir must lie outside the checkout")

    sha = resolve(args.base)
    trees = {"base": export(sha, cache_dir), "change": ROOT}
    print(f"# base {args.base} = {sha} at {trees['base']}; change = working tree",
          file=sys.stderr, flush=True)
    for side in ("base", "change"):
        run_perfbench(trees[side], args, 1)  # builds; not counted
    runs = {"base": [], "change": []}
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            result = run_perfbench(trees[side], args, args.seconds)
            runs[side].append(result)
            print(f"# pair {pair + 1}/{args.pairs} {side}: " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()) +
                  f" correct={result['correct']}", file=sys.stderr, flush=True)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"pairs={args.pairs} base={sha}")
    for line in summarize(spec, runs):
        print(line)
    if args.claim:
        better = next(m["better"] for m in spec["end_to_end"] if m["name"] == args.claim)
        base = [r["metrics"][args.claim]["value"] for r in runs["base"]]
        change = [r["metrics"][args.claim]["value"] for r in runs["change"]]
        verdict = "holds" if claim_holds(base, change, better) else "does not hold"
        print(f"claim {args.claim}: {verdict} (at least {WIN_FRACTION:.0%} of pairs won "
              f"and median gap above the base's IQR)")
    if not all(r["correct"] for side in runs.values() for r in side):
        print("perf_ab: some runs were not correct", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
