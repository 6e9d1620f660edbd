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
// the link/buffer monitors over a shared-buffer switch, and every detour
// policy (random, load-aware, flow-based, probabilistic with its early
// detours; "none" in the DCTCP cells).
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
//
// A third test runs one cell with every instrument on and again with every
// instrument off, and requires the same record: observation must never
// perturb forwarding.

#include <gtest/gtest.h>

#include <bitset>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "src/chaos/oracles.h"
#include "src/exp/run_record.h"
#include "src/fault/fault_plan.h"
#include "src/harness/config.h"
#include "src/harness/scenario.h"
#include "src/trace/trace_codec.h"

namespace dibs {
namespace {

struct GoldenRow {
  const char* name;
  uint64_t digest;
  uint64_t events_processed;
  uint64_t flows_completed;
  uint64_t detours;
};

// Shared shape of every cell: k=4 fat-tree (16 hosts), fixed seed.
ExperimentConfig Reduced(ExperimentConfig c, int duration_ms, int drain_ms) {
  c.fat_tree_k = 4;
  c.incast_degree = 12;
  c.bg_interarrival = Time::Millis(2);
  c.duration = Time::Millis(duration_ms);
  c.drain = Time::Millis(drain_ms);
  c.seed = 7;
  return c;
}

ExperimentConfig CellConfig(const std::string& name) {
  if (name == "dibs_incast_background") {
    ExperimentConfig c = Reduced(DibsConfig(), 30, 15);
    c.qps = 2000;
    return c;
  }
  if (name == "pfabric_rto") {
    ExperimentConfig c = Reduced(PfabricExperimentConfig(), 30, 15);
    c.qps = 3000;
    return c;
  }
  if (name == "dctcp_pfc") {
    ExperimentConfig c = Reduced(DctcpConfig(), 30, 15);
    c.qps = 2000;
    c.net.pfc_enabled = true;
    return c;
  }
  if (name == "dibs_faults") {
    ExperimentConfig c = Reduced(DibsConfig(), 35, 15);
    c.qps = 2000;
    const Topology topo = BuildTopology(c);
    const int tor = fault::TorOf(topo, /*h=*/0);
    const std::vector<int> uplinks = fault::SwitchFacingLinks(topo, tor);
    // Jitter far above the serialization time, so deliveries on the lossy
    // uplink land out of transmit order.
    c.faults.DegradeLink(uplinks.at(0), Time::Millis(2), /*loss_probability=*/0.05,
                         /*extra_jitter=*/Time::Micros(60))
        .RestoreLink(uplinks.at(0), Time::Millis(30))
        .LinkFlap(uplinks.at(1), Time::Millis(5), Time::Millis(3), Time::Millis(3),
                  /*cycles=*/2)
        .SwitchCrash(fault::TorOf(topo, /*h=*/15), Time::Millis(10))
        .SwitchRestart(fault::TorOf(topo, /*h=*/15), Time::Millis(20));
    return c;
  }
  if (name == "dibs_guard_watchdog") {
    // Shallow buffers and a wide incast, so a breaker trips within the cell.
    ExperimentConfig c = Reduced(DibsGuardConfig(), 30, 10);
    c.qps = 18000;
    c.incast_degree = 15;
    c.net.switch_buffer_packets = 30;
    c.net.guard.watchdog = true;
    return c;
  }
  if (name == "dibs_load_aware" || name == "dibs_flow_based" || name == "dibs_probabilistic") {
    // The incast/background cell under each other §7 detour policy.
    ExperimentConfig c = CellConfig("dibs_incast_background");
    c.net.detour_policy = name == "dibs_load_aware"   ? "load-aware"
                          : name == "dibs_flow_based" ? "flow-based"
                                                      : "probabilistic";
    return c;
  }
  if (name == "dctcp_monitors_shared_buffer") {
    ExperimentConfig c = Reduced(DctcpConfig(), 30, 15);
    c.qps = 2000;
    c.net.use_shared_buffer = true;
    c.monitor_links = true;
    c.monitor_buffers = true;
    return c;
  }
  ADD_FAILURE() << "no golden cell named " << name;
  return ExperimentConfig();
}

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

uint64_t Fnv1a64(const char* bytes, size_t n, uint64_t h = kFnvOffset) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Fnv1a64(const std::string& bytes) { return Fnv1a64(bytes.data(), bytes.size()); }

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

// Recorded from the code before in-run checkpointing was deleted.
const GoldenRow kGolden[] = {
    {"dibs_incast_background", 0xb3082c6e9d5f0d53ull, 850162, 1065, 33356},
    {"pfabric_rto", 0x82a7e7a22f3c7f2cull, 844576, 1540, 0},
    {"dctcp_pfc", 0x6f433920b12b3dd0ull, 83903, 117, 0},
    {"dibs_faults", 0x94fb2a042b0ceb9full, 901114, 1283, 17997},
    {"dibs_guard_watchdog", 0x69ecbed9e0e6f3e6ull, 674045, 63, 71298},
    {"dctcp_monitors_shared_buffer", 0x2fbc5a7e2f7b83d9ull, 743245, 1074, 0},
    {"dibs_load_aware", 0xb4fda38f54780139ull, 911725, 1071, 48231},
    {"dibs_flow_based", 0x9bd883d5aab8a457ull, 862748, 1069, 36997},
    {"dibs_probabilistic", 0xb44a41d382a648b7ull, 796469, 1072, 19301},
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

// Hashes the encoded stream exactly as a JSONL sink would write it.
class DigestSink : public TraceSink {
 public:
  void OnEvent(const TraceEvent& e) override {
    char buf[kMaxTraceLineBytes];
    const size_t n = EncodeTraceEventLine(e, buf, sizeof buf);
    digest = Fnv1a64(buf, n, digest);
    ++lines;
    kinds.set(static_cast<size_t>(e.type));
    if (e.type == TraceEventType::kDrop && e.drop_reason == kTraceEvictionReason) {
      ++evictions;
    }
  }

  uint64_t digest = kFnvOffset;
  uint64_t lines = 0;
  std::bitset<kNumTraceEventTypes> kinds;
  uint64_t evictions = 0;
};

std::string FormatTraceRow(const TraceRow& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "{\"%s\", 0x%016" PRIx64 "ull, %" PRIu64 "},", r.name,
                r.digest, r.lines);
  return buf;
}

// Recorded from the code before the instrumentation fan-outs were folded into
// one event stream. Sampling a quarter of packet uids keeps the rows fast and
// pins the bus filter too; control events (uid 0) always pass it.
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
    config.trace.filter.sample = 0.25;
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
// instrument that took a draw, or scheduled anything but its own sampling
// tick, would shift every later forwarding decision. The monitors' outputs
// and those ticks (counted in events_processed) are the only differences
// allowed.
TEST(GoldenBehaviour, InstrumentsDoNotPerturb) {
  const auto run = [](bool instruments) {
    ExperimentConfig config = CellConfig("dibs_incast_background");
    config.monitor_links = instruments;
    config.monitor_buffers = instruments;
    config.trace.enabled = instruments;
    RunRecord rec;
    rec.result = RunScenario(config);
    rec.result.hot_fractions.clear();
    rec.result.relative_hot_fractions.clear();
    rec.result.one_hop_free.clear();
    rec.result.two_hop_free.clear();
    rec.result.events_processed = 0;
    return chaos::CanonicalRecord(rec, /*drop_trace_only=*/true);
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace dibs
