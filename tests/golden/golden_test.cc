// Golden behaviour lock: committed digests of reduced scenario cells.
//
// Every other determinism check in the repo compares two runs of the
// *current* code with each other; this one compares the current code with
// digests recorded from an earlier commit, so a refactor or deletion that
// claims "same behaviour" can prove it. Each row is a short cell on a k=4
// fat-tree (at most 50 ms simulated) chosen to cross a distinct set of timer
// and event paths: wire deliveries and teardowns under detouring, pFabric RTO
// cancel/re-arm, PFC pause frames, reordering lossy links with a flap and a
// ToR crash, the overload guard's tick and the collapse watchdog's sample,
// the fabric monitor over a shared-buffer switch, and every detour
// policy (random, load-aware; "none" in the DCTCP cells).
//
// The digest is FNV-1a-64 over chaos::CanonicalRecord(record) + "\n", the
// same one perfbench uses. A row changes only when behaviour changes on
// purpose; on a mismatch the test prints the replacement row, which that
// change pastes in and explains.
//
// A second table locks the packet-lifecycle trace stream itself: four of the
// cells rerun with tracing on, and a test-owned sink hashes every encoded
// JSONL line (FNV-1a-64 over the EncodeTraceEventLine bytes) and counts them.
// Together those rows must cover every TraceEventType plus a pFabric
// eviction drop, so no emission point can move or vanish unnoticed.
// stream_test.cc pins every cell's unsampled stream the same way.
//
// A third test runs one cell with every instrument on and again with every
// instrument off, and requires the same record: observation must never
// perturb forwarding.

#include <gtest/gtest.h>

#include <bitset>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "src/chaos/oracles.h"
#include "src/exp/run_record.h"
#include "src/harness/scenario.h"
#include "tests/golden/golden_cells.h"

namespace dibs::golden {
namespace {

struct GoldenRow {
  const char* name;
  uint64_t digest;
  uint64_t events_processed;
  uint64_t flows_completed;
  uint64_t detours;
};

GoldenRow RunRow(const char* name) {
  RunRecord rec;
  rec.sweep = "golden";
  rec.points = {{"cell", name}};
  const ExperimentConfig config = CellConfig(name);
  rec.seed = config.seed;
  rec.result = RunScenario(config);
  return {name, Fnv1a64(chaos::CanonicalRecord(rec) + "\n"), rec.result.events_processed,
          rec.result.flows_completed, rec.result.detours};
}

std::string FormatRow(const GoldenRow& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{\"%s\", 0x%016" PRIx64 "ull, %" PRIu64 ", %" PRIu64
                ", %" PRIu64 "},",
                r.name, r.digest, r.events_processed, r.flows_completed, r.detours);
  return buf;
}

// Recorded from the code before in-run checkpointing was deleted, except
// dctcp_monitors_shared_buffer: re-recorded when the link and buffer
// samplers became one monitor that schedules nothing. It lost their 90
// sampling ticks (45 each); with events_processed zeroed its record is
// byte-identical to the one before.
const GoldenRow kGolden[] = {
    {"dibs_incast_background", 0xb3082c6e9d5f0d53ull, 850162, 1065, 33356},
    {"pfabric_rto", 0x82a7e7a22f3c7f2cull, 844576, 1540, 0},
    {"dctcp_pfc", 0x6f433920b12b3dd0ull, 83903, 117, 0},
    {"dibs_faults", 0x94fb2a042b0ceb9full, 901114, 1283, 17997},
    {"dibs_guard_watchdog", 0x69ecbed9e0e6f3e6ull, 674045, 63, 71298},
    {"dctcp_monitors_shared_buffer", 0x1c1e0d7ee48c1ff1ull, 743155, 1074, 0},
    {"dibs_load_aware", 0xb4fda38f54780139ull, 911725, 1071, 48231},
};

TEST(GoldenBehaviour, EveryCellMatchesItsCommittedRow) {
  for (const GoldenRow& want : kGolden) {
    const GoldenRow got = RunRow(want.name);
    const bool same = got.digest == want.digest &&
                      got.events_processed == want.events_processed &&
                      got.flows_completed == want.flows_completed &&
                      got.detours == want.detours;
    EXPECT_TRUE(same) << want.name << ": want " << FormatRow(want) << "\n"
                      << "replacement row:\n    " << FormatRow(got);
  }
}

struct TraceRow {
  const char* name;
  uint64_t digest;  // FNV-1a-64 over every encoded line, newlines included
  uint64_t lines;
};

std::string FormatTraceRow(const TraceRow& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "{\"%s\", 0x%016" PRIx64 "ull, %" PRIu64 "},", r.name,
                r.digest, r.lines);
  return buf;
}

// Recorded from the code before the instrumentation fan-outs were folded into
// one event stream. Sampling a quarter of packet uids keeps the rows fast and
// pins the bus's sampling too; control events (uid 0) always pass it.
const TraceRow kGoldenTrace[] = {
    {"dibs_faults", 0x23f3b93fbae41e64ull, 495035},
    {"pfabric_rto", 0x1bf2be9d837e81b2ull, 487049},
    {"dctcp_pfc", 0x72670d75de7b4a6eull, 53646},
    {"dibs_guard_watchdog", 0xe4192d266005e465ull, 433261},
};

TEST(GoldenBehaviour, TracedCellsMatchTheirCommittedStreams) {
  std::bitset<kNumTraceEventTypes> kinds;
  uint64_t evictions = 0;
  for (const TraceRow& want : kGoldenTrace) {
    ExperimentConfig config = CellConfig(want.name);
    config.trace.enabled = true;
    config.trace.sample = 0.25;
    Scenario scenario(config);
    DigestSink sink;
    scenario.trace()->bus()->AddSink(&sink);
    scenario.Run();
    const TraceRow got{want.name, sink.digest, sink.lines};
    EXPECT_TRUE(got.digest == want.digest && got.lines == want.lines)
        << want.name << ": want " << FormatTraceRow(want) << "\n"
        << "replacement row:\n    " << FormatTraceRow(got);
    kinds |= sink.kinds;
    evictions += sink.evictions;
  }
  for (size_t i = 0; i < kNumTraceEventTypes; ++i) {
    EXPECT_TRUE(kinds.test(i)) << "no traced row emits "
                               << TraceEventTypeName(static_cast<TraceEventType>(i));
  }
  EXPECT_GT(evictions, 0u) << "no traced row emits a pFabric eviction drop";
}

// The DIBS cell draws from the simulator RNG on every detour, so an
// instrument that took a draw or scheduled anything would shift every later
// forwarding decision. No instrument schedules an event, so only what the
// instruments themselves fill may differ; events_processed may not.
TEST(GoldenBehaviour, InstrumentsDoNotPerturb) {
  const auto run = [](bool instruments) {
    ExperimentConfig config = CellConfig("dibs_incast_background");
    config.monitor_interval = instruments ? Time::Millis(1) : Time::Zero();
    config.trace.enabled = instruments;
    RunRecord rec;
    rec.result = RunScenario(config);
    return chaos::CanonicalRecord(rec, /*drop_trace_only=*/true);
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace dibs::golden
