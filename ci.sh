#!/usr/bin/env bash
# CI entry point. Each stage prints a `== <name>: ... ==` banner; other
# files cite a stage by that name, never by its number. Stages, in order:
#
#   1. lint               — tools/determinism_lint.py, the textual
#                           determinism rules: no rand()/random_device/
#                           wall-clock on the simulation path, no unallowed
#                           unordered container in src/, no pointer-keyed
#                           ordered container.
#   2. format             — clang-format --dry-run over the tree (skipped
#                           when clang-format is not installed).
#   3. tier-1             — default build + full ctest suite.
#   4. perfbench          — the benchmark's own self-test (planted digest and
#                           status failures must reach fail_frac), then every
#                           BENCHMARK.json workload once at seed 1 for one
#                           second: each must report "correct": true, i.e.
#                           finish ok with the reference digest. A change to
#                           event order fails here, not only in the
#                           benchmark pipeline.
#   5. tidy               — `tidy` target over src/ using the tier-1 build's
#                           compile_commands.json (skips itself when
#                           clang-tidy is not installed).
#   6. asan+ubsan         — full ctest suite under ASan+UBSan with
#                           DIBS_VALIDATE=1, so every scenario test also
#                           runs the invariant checker and its conservation
#                           ledger must balance, and golden_behaviour must
#                           reproduce its committed digests in this build
#                           too.
#   7. fuzz               — deterministic chaos harness (tools/dibs_fuzz):
#                           the spec stream for the fixed seed must be
#                           bit-reproducible, a 100-case fixed-seed fuzz run
#                           (invariant + metamorphic oracles) must come back
#                           clean under ASan+UBSan, and the planted-bug
#                           repro (DIBS_CHAOS_PLANT=1) must replay red with
#                           the bug in and green without — proof the oracle
#                           actually bites. Corpus replay itself rides in
#                           tier-1 ctest (chaos_corpus_replay).
#   8. fig11              — the incast-degree figure bench end-to-end with
#                           DIBS_VALIDATE=1 and DIBS_REQUIRE_OK=1 (any run
#                           a validation throw fails is fatal), on the
#                           tier-1 build tree.
#   9. trace              — fig11 again with DIBS_TRACE=1: tables must be
#                           byte-identical to the fig11 stage's run, every
#                           per-run trace JSONL must pass `trace_tool
#                           summarize`, the Perfetto export must be valid
#                           JSON, and the same traced bench must run clean
#                           under ASan+UBSan. Also kills one child run via
#                           DIBS_TEST_CRASH_RUN (process isolation) and
#                           requires the flight-recorder crash dump it leaves
#                           behind to be parseable. Finally the tracing-off
#                           overhead guard: BM_SwitchPacketHop must stay
#                           within 2% of the per-machine ratcheted baseline
#                           cached in the build tree
#                           (tools/check_trace_overhead.py).
#  10. resilience         — the fault-injection bench under ASan+UBSan with
#                           DIBS_VALIDATE=1 (the conservation ledger must
#                           balance through link flaps, lossy links, and a
#                           ToR crash), run twice — DIBS_JOBS=1 then
#                           DIBS_JOBS=8 — and diffed: tables byte-identical,
#                           JSONL identical modulo host-side wall-clock
#                           metadata (wall_ms / events_per_sec).
#  11. crash-resume       — kills (SIGKILL) the resilience bench mid-sweep,
#                           resumes it from its run journal (DIBS_RESUME=1),
#                           and byte-diffs the resumed tables/JSONL against
#                           an uninterrupted run at DIBS_JOBS=1 and 8 — the
#                           acceptance bar for journal-backed resume. The
#                           crash/hang injection hooks behind the same
#                           machinery (DIBS_TEST_CRASH_RUN, DIBS_ISOLATE)
#                           are exercised by tests/exp under the
#                           asan+ubsan stage's config.
#  12. guard              — overload-protection smoke: the guarded fig14
#                           extreme-qps sweep under ASan+UBSan with
#                           DIBS_VALIDATE=1 (guard drops must keep the
#                           conservation ledger balanced, and the breaker
#                           must actually trip), then the guard_collapse
#                           negative test on the plain build: the
#                           CollapseWatchdog must flag unguarded DIBS at
#                           the collapse point and must not flag the
#                           guarded run (DIBS_GUARD_EXPECT=1 makes the
#                           bench exit nonzero otherwise).
#  13. tsan               — sweep engine under ThreadSanitizer (tests/exp)
#                           so data races in the threaded layer fail the
#                           pipeline.
#
# Build trees are shared across stages (build/, build-asan/, build-tsan/ are
# incremental across CI runs) to keep wall-clock bounded.
#
# Usage: ./ci.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${1:-$(nproc)}"

echo "== lint: determinism rules =="
python3 tools/determinism_lint.py

echo "== format: clang-format check =="
if command -v clang-format >/dev/null 2>&1; then
  find src tests bench examples tools -name '*.h' -o -name '*.cc' -o -name '*.cpp' \
    | xargs clang-format --dry-run --Werror
else
  echo "clang-format not found, skipping"
fi

echo "== tier-1: default build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== perfbench: self-test, then every workload's digest at seed 1 =="
# run.py builds its own tree (.bench_build/) from this checkout's src/ and
# prints one JSON result object as its last stdout line.
python3 perfbench/run.py --self-test
for workload in $(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  result="$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 | tail -n 1)"
  echo "$workload: $result"
  case "$result" in
    *'"correct": true'*) ;;
    *) echo "perfbench: $workload did not reproduce its reference digest"; exit 1 ;;
  esac
done

echo "== tidy: clang-tidy over src/ =="
cmake --build build --target tidy

echo "== asan+ubsan: full test suite with DIBS_VALIDATE=1 =="
cmake -B build-asan -S . -DDIBS_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j"$JOBS"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" UBSAN_OPTIONS="halt_on_error=1" \
  DIBS_VALIDATE=1 ctest --test-dir build-asan --output-on-failure -j"$JOBS"

# Scratch space shared by the smoke stages below.
CI_TMP="$(mktemp -d)"
trap 'rm -rf "$CI_TMP"' EXIT

echo "== fuzz: deterministic chaos harness =="
FUZZ_TMP="$CI_TMP/fuzz"
mkdir -p "$FUZZ_TMP"
cmake --build build -j"$JOBS" --target dibs_fuzz
cmake --build build-asan -j"$JOBS" --target dibs_fuzz
# The spec stream is a pure function of the seed: two generations must be
# byte-identical (and the plain and sanitized builds must agree — a
# divergence means undefined behavior leaked into the generator).
./build/tools/dibs_fuzz gen --seed 20140401 --cases 200 > "$FUZZ_TMP/stream_a.jsonl"
./build/tools/dibs_fuzz gen --seed 20140401 --cases 200 > "$FUZZ_TMP/stream_b.jsonl"
./build-asan/tools/dibs_fuzz gen --seed 20140401 --cases 200 > "$FUZZ_TMP/stream_asan.jsonl"
diff -u "$FUZZ_TMP/stream_a.jsonl" "$FUZZ_TMP/stream_b.jsonl"
diff -u "$FUZZ_TMP/stream_a.jsonl" "$FUZZ_TMP/stream_asan.jsonl"
echo "fuzz: spec stream bit-reproducible"
# Fixed-seed 100-case smoke under ASan+UBSan: every case runs the invariant
# ledger plus the metamorphic oracles and must come back clean.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" UBSAN_OPTIONS="halt_on_error=1" \
  DIBS_FUZZ_SEED=20140401 DIBS_FUZZ_BUDGET=20000000 \
  ./build-asan/tools/dibs_fuzz run --cases 100
# Planted-bug round trip on the plain build: the committed corpus entry must
# replay red with the known-bad ledger hook enabled and green without it —
# if the red leg passes, the validate oracle has stopped biting.
if DIBS_CHAOS_PLANT=1 ./build/tools/dibs_fuzz replay \
    tests/chaos/corpus/seed7-case0-validate.json > /dev/null 2>&1; then
  echo "fuzz: planted bug was NOT detected — oracle is blind"; exit 1
fi
./build/tools/dibs_fuzz replay tests/chaos/corpus
echo "fuzz: planted-bug repro replays red with the bug, green without"

echo "== fig11: incast-degree bench with DIBS_VALIDATE=1 =="
DIBS_VALIDATE=1 DIBS_REQUIRE_OK=1 DIBS_BENCH_DURATION_MS=50 \
  ./build/bench/fig11_incast_degree | tee "$CI_TMP/fig11_plain.txt"

echo "== trace: fig11 with tracing on — identical tables, parseable traces =="
TR_TMP="$CI_TMP/trace"
mkdir -p "$TR_TMP"
cmake --build build -j"$JOBS" --target trace_tool
# Tracing must be an observer, never a participant: the traced run's tables
# must be byte-identical to the fig11 stage's untraced run.
DIBS_VALIDATE=1 DIBS_REQUIRE_OK=1 DIBS_BENCH_DURATION_MS=50 \
  DIBS_TRACE=1 DIBS_TRACE_JSONL="$TR_TMP/fig11.jsonl" \
  ./build/bench/fig11_incast_degree > "$TR_TMP/fig11_traced.txt"
diff -u "$CI_TMP/fig11_plain.txt" "$TR_TMP/fig11_traced.txt"
echo "trace: tables byte-identical with tracing on"
# Every per-run trace must decode and summarize (summarize exits nonzero on
# an empty or unopenable trace), and the Perfetto export must be valid JSON.
for f in "$TR_TMP"/fig11.run*.jsonl; do
  ./build/tools/trace_tool summarize "$f" > /dev/null
done
./build/tools/trace_tool to-perfetto "$TR_TMP/fig11.run0.jsonl" \
  "$TR_TMP/fig11.run0.perfetto.json" > /dev/null
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
  "$TR_TMP/fig11.run0.perfetto.json"
echo "trace: $(ls "$TR_TMP"/fig11.run*.jsonl | wc -l) per-run traces summarize cleanly"

echo "== trace: same traced bench under ASan+UBSan =="
cmake --build build-asan -j"$JOBS" --target fig11_incast_degree
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" UBSAN_OPTIONS="halt_on_error=1" \
  DIBS_VALIDATE=1 DIBS_REQUIRE_OK=1 DIBS_BENCH_DURATION_MS=50 \
  DIBS_TRACE=1 DIBS_TRACE_JSONL="$TR_TMP/fig11_asan.jsonl" \
  DIBS_TRACE_PERFETTO="$TR_TMP/fig11_asan.perfetto.json" \
  ./build-asan/bench/fig11_incast_degree > /dev/null
./build/tools/trace_tool summarize "$TR_TMP/fig11_asan.run0.jsonl" > /dev/null

echo "== trace: forced child crash leaves a parseable flight-recorder dump =="
# Run 2 of the sweep segfaults inside an isolated child process; the crash
# handler must dump the flight-recorder ring before the process dies, and the
# dump must be analyzable after the fact. No DIBS_REQUIRE_OK: the crashed row
# is expected and the sweep itself finishes.
rm -f "$TR_TMP"/crash_dump*.jsonl
DIBS_BENCH_DURATION_MS=50 DIBS_ISOLATE=process DIBS_TEST_CRASH_RUN=2 \
  DIBS_TRACE=1 DIBS_TRACE_DUMP_PATH="$TR_TMP/crash_dump.jsonl" \
  ./build/bench/fig11_incast_degree > /dev/null
./build/tools/trace_tool summarize "$TR_TMP/crash_dump.run2.jsonl"
echo "trace: crash dump parseable"

echo "== trace: tracing-off overhead guard on micro_simcore =="
# BM_SwitchPacketHop runs with no subscribers; the trace variants ride
# along as smoke. The guard ratchets against a per-machine baseline cached in
# the (incremental, per-machine) build tree — wall-clock baselines do not
# transfer between machines.
./build/bench/micro_simcore --benchmark_filter='^BM_SwitchPacketHop' \
  --benchmark_repetitions=5 --benchmark_format=json \
  > "$TR_TMP/switch_hop.json"
python3 tools/check_trace_overhead.py "$TR_TMP/switch_hop.json" \
  build/trace_overhead_baseline.json 2.0

echo "== resilience: fault-injection bench, seed-determinism across DIBS_JOBS =="
# ASan+UBSan build (the asan+ubsan stage already built it) with the invariant checker on:
# every fault cell must keep the conservation ledger balanced, and the whole
# sweep must be reproducible regardless of worker count.
cmake --build build-asan -j"$JOBS" --target resilience
RES_TMP="$CI_TMP/resilience"
mkdir -p "$RES_TMP"
for jobs in 1 8; do
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" UBSAN_OPTIONS="halt_on_error=1" \
    DIBS_VALIDATE=1 DIBS_REQUIRE_OK=1 DIBS_BENCH_DURATION_MS=50 DIBS_JOBS="$jobs" \
    DIBS_SWEEP_JSONL="$RES_TMP/res_j$jobs.jsonl" \
    ./build-asan/bench/resilience > "$RES_TMP/res_j$jobs.txt"
  # Host-side wall-clock metadata legitimately differs between runs; the
  # simulation payload may not.
  sed -E 's/"wall_ms":[0-9.eE+-]+,"events_per_sec":[0-9.eE+-]+/"wall_ms":0,"events_per_sec":0/' \
    "$RES_TMP/res_j$jobs.jsonl" > "$RES_TMP/res_j$jobs.norm"
done
diff -u "$RES_TMP/res_j1.txt" "$RES_TMP/res_j8.txt"
diff -u "$RES_TMP/res_j1.norm" "$RES_TMP/res_j8.norm"
echo "resilience: byte-identical across DIBS_JOBS=1/8"

echo "== crash-resume: kill -9 mid-sweep, resume from journal, byte-diff =="
# Plain (fast) build of the same bench. For each worker count: run once
# uninterrupted as the baseline, then start a journaled run, SIGKILL it once
# a few rows hit the journal, resume with DIBS_RESUME=1 into fresh sink
# files, and require tables and (normalized) JSONL byte-identical to the
# baseline. DIBS_REQUIRE_OK=1 on the resumed leg also proves the sweep gate
# passes a fully-recovered sweep.
cmake --build build -j"$JOBS" --target resilience
CR_TMP="$RES_TMP/crash_resume"
mkdir -p "$CR_TMP"
normalize_wall() {
  sed -E 's/"wall_ms":[0-9.eE+-]+,"events_per_sec":[0-9.eE+-]+/"wall_ms":0,"events_per_sec":0/' \
    "$1" > "$2"
}
# CSV columns 9/10 are wall_ms and events_per_sec (no quoted commas precede
# them on ok rows).
normalize_csv_wall() {
  awk -F, 'BEGIN{OFS=","} {if (NF > 10) {$9="0"; $10="0"} print}' "$1" > "$2"
}
for jobs in 1 8; do
  rm -f "$CR_TMP"/*
  DIBS_BENCH_DURATION_MS=50 DIBS_JOBS="$jobs" \
    DIBS_SWEEP_JSONL="$CR_TMP/base.jsonl" \
    DIBS_SWEEP_CSV="$CR_TMP/base.csv" \
    ./build/bench/resilience > "$CR_TMP/base.txt"

  DIBS_BENCH_DURATION_MS=50 DIBS_JOBS="$jobs" \
    DIBS_JOURNAL="$CR_TMP/sweep.journal" \
    DIBS_SWEEP_JSONL="$CR_TMP/killed.jsonl" \
    ./build/bench/resilience > /dev/null 2>&1 &
  victim=$!
  # Wait for the journal to hold the header plus >= 2 run records, then
  # SIGKILL. If the sweep finishes first the resume leg degrades to a
  # full-replay check, which must produce identical output too.
  for _ in $(seq 1 400); do
    lines=0
    if [ -f "$CR_TMP/sweep.journal" ]; then
      lines=$(wc -l < "$CR_TMP/sweep.journal")
    fi
    if [ "$lines" -ge 3 ]; then
      break
    fi
    if ! kill -0 "$victim" 2>/dev/null; then
      break
    fi
    sleep 0.05
  done
  kill -9 "$victim" 2>/dev/null || true
  wait "$victim" 2>/dev/null || true

  DIBS_RESUME=1 DIBS_REQUIRE_OK=1 DIBS_BENCH_DURATION_MS=50 DIBS_JOBS="$jobs" \
    DIBS_JOURNAL="$CR_TMP/sweep.journal" \
    DIBS_SWEEP_JSONL="$CR_TMP/resumed.jsonl" \
    DIBS_SWEEP_CSV="$CR_TMP/resumed.csv" \
    ./build/bench/resilience > "$CR_TMP/resumed.txt"

  normalize_wall "$CR_TMP/base.jsonl" "$CR_TMP/base.norm"
  normalize_wall "$CR_TMP/resumed.jsonl" "$CR_TMP/resumed.norm"
  normalize_csv_wall "$CR_TMP/base.csv" "$CR_TMP/base.csvnorm"
  normalize_csv_wall "$CR_TMP/resumed.csv" "$CR_TMP/resumed.csvnorm"
  diff -u "$CR_TMP/base.txt" "$CR_TMP/resumed.txt"
  diff -u "$CR_TMP/base.norm" "$CR_TMP/resumed.norm"
  diff -u "$CR_TMP/base.csvnorm" "$CR_TMP/resumed.csvnorm"
  echo "crash-resume: byte-identical after SIGKILL + resume at DIBS_JOBS=$jobs"
done

echo "== guard: ASan+UBSan guarded fig14 smoke with DIBS_VALIDATE=1 =="
# The guarded scheme runs the whole extreme-qps sweep under sanitizers with
# the invariant checker on: breaker suppressions and TTL clamps must keep
# the conservation ledger balanced (every guard drop is attributed).
cmake --build build-asan -j"$JOBS" --target fig14_extreme_qps
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" UBSAN_OPTIONS="halt_on_error=1" \
  DIBS_VALIDATE=1 DIBS_REQUIRE_OK=1 DIBS_BENCH_DURATION_MS=20 \
  ./build-asan/bench/fig14_extreme_qps | tee "$CI_TMP/fig14_guard.txt"
# The guarded column must show real breaker activity even in the short
# smoke window (trips is the second-to-last table column; skip banner and
# blank lines, where NF-1 would be an invalid field index).
awk 'NR > 6 && NF > 2 && $(NF-1) + 0 > 0 { active = 1 } END { exit active ? 0 : 1 }' \
  "$CI_TMP/fig14_guard.txt" \
  || { echo "guard: no breaker trips in the fig14 smoke"; exit 1; }

echo "== guard: negative test — watchdog trips unguarded DIBS, not guarded =="
# Plain (fast) build at the collapse point: the bench itself exits nonzero
# unless the unguarded run is flagged by the CollapseWatchdog AND the
# guarded run is not (with at least one breaker trip). A watchdog that
# never fires, or a guard that stopped preventing the collapse it exists
# for, both fail here.
cmake --build build -j"$JOBS" --target guard_collapse
DIBS_GUARD_EXPECT=1 ./build/bench/guard_collapse

echo "== tsan: sweep engine under ThreadSanitizer =="
cmake -B build-tsan -S . -DDIBS_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS" --target exp_test
# Multiple worker threads even on small CI machines, so claim/flush paths
# actually interleave under TSan.
TSAN_OPTIONS="halt_on_error=1" DIBS_JOBS=4 ./build-tsan/tests/exp_test

echo "== ci.sh: all green =="
