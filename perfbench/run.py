#!/usr/bin/env python3
"""Simulator benchmark: host time, memory and correctness of DIBS workloads.

    python3 perfbench/run.py --workload incast_dibs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

Builds perfbench/ (and with it the repo's src/ libraries) into .bench_build/,
runs the dibs_perfbench binary for one workload, checks every attempt's
simulated-results digest, and prints one JSON object as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 its
per_layer metrics; the lines before it give medians with quartiles and sample
counts, the failure fraction and the machine descriptor. The full result,
metadata included, goes to .bench_build/perfbench/results/, and a traced
run's spans and depth samples to .bench_build/perfbench/traces/.

An attempt fails when a run did not finish ok or when its digest differs
from the reference digest (perfbench/reference.json) at the reference seed,
or from the other attempts' digest at any other seed.

run_s and setup_s are medians over a run's repetitions, printed with their
quartiles and sample count, of host seconds at a fixed host speed: each
timing t is reported as t * probe_nominal_s / p, where p is the time of the
speed probe (perfbench/speed_probe.h) on the same CPU at the same moment -
inside the timed Scenario::Run (probe time itself subtracted) or just before
the setup sample. A shared host's speed drifts up to 2x for minutes; the
probe, which uses nothing from src/, drifts with it and keeps that out of
numbers meant to track the code. The raw host medians are printed as
run_host_s and setup_host_s.

run_s is also scaled by reference_events / events: the simulated traffic a
short window holds varies by tens of percent from seed to seed, and the scale
keeps that out too. At the reference seed it is 1, and as events_processed is
part of the digest, a change that keeps the digest keeps every seed's events.
"""

import argparse
import collections
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "dibs_perfbench"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 1
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path.name} not found at the checkout root")
    return json.loads(spec_path.read_text())


def build():
    """Configures once and (re)builds the benchmark binary; serialised by a lock."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no src/ tree next to perfbench/: run from a full checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = BUILD / "CMakeCache.txt"
        if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
            log("build directory belongs to another checkout; reconfiguring")
            cache.unlink()
        steps = []
        if not cache.exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "dibs_perfbench",
                      "-j", str(min(os.cpu_count() or 1, 8))])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if proc.returncode != 0:
                raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_binary(workload, seed, seconds, trace, plant=None):
    """Runs dibs_perfbench once and returns its raw result object."""
    tmp = BUILD / "tmp" / f"{workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    out = tmp / "result.json"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
           "--tmp", str(tmp)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--spans", str(traces / f"{workload}-seed{seed}.json")]
    if plant:
        cmd += ["--plant", plant]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchError(f"dibs_perfbench exited with {proc.returncode}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def count_failures(raw, reference):
    """Attempts that did not finish ok or whose digest is not the expected one."""
    ref = reference.get(raw["workload"])
    digests = [a["digest"] for a in raw["attempts"]]
    if ref is not None and raw["seed"] == ref["seed"]:
        expected = ref["digest"]
    else:
        common = collections.Counter(digests).most_common(2)
        tied = len(common) == 2 and common[0][1] == common[1][1]
        expected = None if tied else common[0][0]
    return sum(1 for a in raw["attempts"] if not a["ok"] or a["digest"] != expected)


def describe(values):
    """Summary of one metric's samples; `value` is what the metric reports."""
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def event_scale(raw, reference):
    """reference_events / events of this seed's timed call (1 without a reference)."""
    ref = reference.get(raw["workload"])
    events = [a["events"] for a in raw["attempts"] if a["ok"] and a["events"] > 0]
    if ref is None or not events:
        return 1.0
    return ref["events"] / statistics.median(events)


def end_to_end(raw, reference):
    """Every end-to-end metric, described, with the raw host times beside them."""
    scale = event_scale(raw, reference)
    nominal = raw["probe_nominal_s"]
    runs = [a for a in raw["attempts"] if a["kind"] == "run" and a["probes"] > 0]
    run_s = [(a["seconds"] - a["probe_wall_s"]) * nominal / a["probe_s"] * scale for a in runs]
    setup_s = [s * nominal / p for s, p in zip(raw["setup_s"], raw["setup_probe_s"])]
    return {
        "run_s": describe(run_s),
        "setup_s": describe(setup_s),
        "peak_rss_mb": describe([raw["peak_rss_mb"]]),
    }, {
        "run_host_s": describe([a["seconds"] for a in runs]),
        "setup_host_s": describe(raw["setup_s"]),
        "probe_s": describe([a["probe_s"] for a in runs] + raw["setup_probe_s"]),
    }


def src_line_count():
    lines = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".h", ".cc", ".txt"):
            with open(path, "rb") as f:
                lines += sum(1 for _ in f)
    return lines


def machine():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def measure(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()
    reference = load_reference()
    raw = run_binary(args.workload, args.seed, args.seconds, args.trace)
    attempted = len(raw["attempts"])
    failed = count_failures(raw, reference)

    if args.trace:
        layers = {l["name"]: l for l in raw["layers"]}
        stats = {}
        for m in declared:
            layer = layers.get(m["name"])
            if layer is None or layer["unit"] != m["unit"]:
                raise BenchError(f"traced run did not report {m['name']} in {m['unit']}")
            stats[m["name"]] = describe([layer["value"]])
        host = {}
    else:
        stats, host = end_to_end(raw, reference)

    meta = dict(machine(), compiler=raw["compiler"], build_type=raw["build_type"],
                src_lines=src_line_count(),
                event_scale=event_scale(raw, reference))
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "summary": stats, "host": host, "failed": failed,
                    "attempted": attempted, "raw": raw}, indent=1) + "\n")

    units = {m["name"]: m["unit"] for m in declared}
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"event_scale={meta['event_scale']:.6f}")
    print(f"# fail_frac [frac]: value={failed / attempted:.6g} "
          f"({failed} of {attempted} attempts failed)")
    if not args.trace:
        for name, d in stats.items():
            print(f"# {name} [{units[name]}]: " +
                  " ".join(f"{k}={v:.6g}" for k, v in d.items()))
        for name, d in host.items():
            print(f"# {name} [s]: " + " ".join(f"{k}={v:.6g}" for k, v in d.items()))
    print("# machine: " + " ".join(f"{k}={v}" for k, v in meta.items()
                                   if k != "event_scale"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["value"], "unit": units[name]}
                    for name in units},
    }))


def record():
    """Runs every workload at the reference seed and rewrites reference.json."""
    build()
    reference = {}
    for w in load_spec()["workloads"]:
        raw = run_binary(w["name"], REFERENCE_SEED, 1, 0)
        digests = {a["digest"] for a in raw["attempts"]}
        events = {a["events"] for a in raw["attempts"]}
        if not all(a["ok"] for a in raw["attempts"]) or len(digests) != 1 or len(events) != 1:
            raise BenchError(f"{w['name']}: attempts disagree; nothing recorded")
        reference[w["name"]] = {"seed": REFERENCE_SEED, "digest": digests.pop(),
                                "events": events.pop()}
        log(f"{w['name']}: {reference[w['name']]}")
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


def self_test():
    """Shows that planted digest mismatches and non-ok runs reach fail_frac."""
    def attempt(digest, ok=True):
        return {"kind": "run", "seconds": 1.1, "ok": ok, "digest": digest, "events": 10,
                "probes": 4, "probe_s": 0.002, "probe_wall_s": 0.1}

    def raw(seed, *attempts):
        return {"workload": "w", "seed": seed, "attempts": list(attempts)}

    ref = {"w": {"seed": 1, "digest": "a", "events": 20}}
    checks = [
        ("clean run at the reference seed", count_failures(raw(1, attempt("a"), attempt("a")), ref), 0),
        ("wrong digest at the reference seed", count_failures(raw(1, attempt("a"), attempt("b")), ref), 1),
        ("non-ok run with the right digest", count_failures(raw(1, attempt("a", ok=False)), ref), 1),
        ("odd digest at another seed", count_failures(raw(2, attempt("c"), attempt("c"), attempt("d")), ref), 1),
        ("tied digests at another seed", count_failures(raw(2, attempt("c"), attempt("d")), ref), 2),
        ("event scale", event_scale(raw(2, attempt("c")), ref), 2.0),
        ("describe", describe([5, 4, 3, 2, 1]), {"value": 3, "q1": 1.5, "q3": 4.5, "n": 5}),
        ("probe-scaled run_s and setup_s",
         [round(d["value"], 9) for d in end_to_end(
             dict(raw(2, attempt("c")), probe_nominal_s=0.001, setup_s=[0.004],
                  setup_probe_s=[0.002], peak_rss_mb=1), ref)[0].values()],
         [1.0, 0.002, 1]),
    ]
    build()
    reference = load_reference()
    for plant, workload in ((None, "incast_dibs"), ("digest", "pfabric_incast"),
                            ("status", "incast_dibs")):
        result = run_binary(workload, REFERENCE_SEED, 1, 0, plant)
        failed = count_failures(result, reference)
        checks.append((f"{workload} planted={plant}: failed attempts", failed,
                       0 if plant is None else 1))
        if plant == "status":
            checks.append((f"{workload} planted=status: first attempt not ok",
                           result["attempts"][0]["ok"], False))
    bad = [c for c in checks if c[1] != c[2]]
    for name, got, want in checks:
        log(f"{'ok  ' if got == want else 'FAIL'} {name}: got {got}, want {want}")
    if bad:
        raise BenchError(f"self-test: {len(bad)} check(s) failed")
    print("self-test ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            self_test()
        elif args.record:
            record()
        elif args.workload:
            measure(args)
        else:
            parser.error("--workload, --self-test or --record is required")
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        log(str(e))
        sys.exit(2)


if __name__ == "__main__":
    main()
