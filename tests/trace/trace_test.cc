// Trace subsystem tests: codec round-trips, flight-recorder ring semantics,
// sampling, dump-on-ValidationError, journey-vs-aggregate cross-checks, and
// the determinism contract — traced runs match untraced runs, and trace
// JSONL is byte-identical across worker counts and process isolation.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/device/invariant_checker.h"
#include "src/exp/sweep_engine.h"
#include "src/harness/config.h"
#include "src/harness/scenario.h"
#include "src/trace/flight_recorder.h"
#include "src/trace/journey.h"
#include "src/trace/trace_bus.h"
#include "src/trace/trace_codec.h"
#include "src/trace/trace_config.h"
#include "src/trace/trace_session.h"
#include "src/util/env.h"
#include "src/util/json.h"
#include "src/util/validation.h"

namespace dibs {
namespace {

TraceEvent FullEvent(uint64_t uid) {
  TraceEvent e;
  e.at = Time::Micros(1234);
  e.type = TraceEventType::kDequeue;
  e.node = 17;
  e.port = 3;
  e.uid = uid;
  e.flow = 42;
  e.src = 5;
  e.dst = 9;
  e.seq = 123456;
  e.is_ack = false;
  e.ttl = 250;
  e.tclass = static_cast<uint8_t>(TrafficClass::kQuery);
  e.detour_count = 7;
  e.queue_depth = 12;
  return e;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(TraceCodec, RoundTripAllFields) {
  const TraceEvent e = FullEvent(~0ull);  // the largest uid decodes exactly
  TraceEvent d;
  ASSERT_TRUE(DecodeTraceEvent(EncodeTraceEvent(e), &d));
  EXPECT_EQ(d.at, e.at);
  EXPECT_EQ(d.type, e.type);
  EXPECT_EQ(d.node, e.node);
  EXPECT_EQ(d.port, e.port);
  EXPECT_EQ(d.uid, e.uid);
  EXPECT_EQ(d.flow, e.flow);
  EXPECT_EQ(d.src, e.src);
  EXPECT_EQ(d.dst, e.dst);
  EXPECT_EQ(d.seq, e.seq);
  EXPECT_EQ(d.is_ack, e.is_ack);
  EXPECT_EQ(d.ttl, e.ttl);
  EXPECT_EQ(d.tclass, e.tclass);
  EXPECT_EQ(d.detour_count, e.detour_count);
  EXPECT_EQ(d.queue_depth, e.queue_depth);
}

TEST(TraceCodec, RoundTripDropReasons) {
  TraceEvent e = FullEvent(7);
  e.type = TraceEventType::kDrop;
  e.drop_reason = static_cast<uint8_t>(DropReason::kTtlExpired);
  TraceEvent d;
  ASSERT_TRUE(DecodeTraceEvent(EncodeTraceEvent(e), &d));
  EXPECT_EQ(d.drop_reason, e.drop_reason);

  // The pFabric-eviction sentinel is not a DropReason but must survive too.
  e.drop_reason = kTraceEvictionReason;
  ASSERT_TRUE(DecodeTraceEvent(EncodeTraceEvent(e), &d));
  EXPECT_EQ(d.drop_reason, kTraceEvictionReason);
}

TEST(TraceCodec, RoundTripGuardTransition) {
  // Breaker transitions ride the numeric fields: from-state in port,
  // to-state in queue_depth, uid 0 (no packet involved).
  TraceEvent e;
  e.at = Time::Millis(42);
  e.type = TraceEventType::kGuardTransition;
  e.node = 17;
  e.port = static_cast<int32_t>(GuardState::kArmed);
  e.queue_depth = static_cast<int32_t>(GuardState::kSuppressed);
  e.uid = 0;
  TraceEvent d;
  ASSERT_TRUE(DecodeTraceEvent(EncodeTraceEvent(e), &d));
  EXPECT_EQ(d.type, TraceEventType::kGuardTransition);
  EXPECT_EQ(d.at, e.at);
  EXPECT_EQ(d.node, 17);
  EXPECT_EQ(static_cast<GuardState>(d.port), GuardState::kArmed);
  EXPECT_EQ(static_cast<GuardState>(d.queue_depth), GuardState::kSuppressed);
}

TEST(TraceCodec, EncodedLineFitsFixedBufferAndEndsWithNewline) {
  char buf[kMaxTraceLineBytes];
  const size_t n = EncodeTraceEventLine(FullEvent(~0ull), buf, sizeof buf);
  ASSERT_GT(n, 0u);
  ASSERT_LT(n, sizeof buf);
  EXPECT_EQ(buf[n - 1], '\n');
}

TEST(TraceCodec, RejectsMalformedLines) {
  TraceEvent d;
  EXPECT_FALSE(DecodeTraceEvent("", &d));
  EXPECT_FALSE(DecodeTraceEvent("{\"t\":1,\"ev\":\"no-such-event\"}", &d));
  // Every line names its event type; a default-constructed host-send is not
  // a decoding of a line that has none.
  EXPECT_FALSE(DecodeTraceEvent("{}", &d));
  EXPECT_FALSE(DecodeTraceEvent("{\"t\":1}", &d));
  // An unknown drop reason is corrupt, not a pFabric eviction.
  EXPECT_FALSE(DecodeTraceEvent("{\"t\":1,\"ev\":\"drop\",\"reason\":\"queue-overfow\"}", &d));
  // Integers outside their field's type reject the line instead of wrapping.
  EXPECT_FALSE(DecodeTraceEvent("{\"t\":1,\"ev\":\"drop\",\"uid\":99999999999999999999999}", &d));
  EXPECT_FALSE(DecodeTraceEvent("{\"t\":1,\"ev\":\"drop\",\"node\":4294967297}", &d));
}

TEST(TraceCodec, RoundTripMostNegativeTime) {
  TraceEvent e = FullEvent(1);
  e.at = Time::Nanos(INT64_MIN);
  TraceEvent d;
  ASSERT_TRUE(DecodeTraceEvent(EncodeTraceEvent(e), &d));
  EXPECT_EQ(d.at, e.at);
}

TEST(FlightRecorder, RingWrapsKeepingNewest) {
  FlightRecorder ring(8);
  for (uint64_t i = 1; i <= 20; ++i) {
    ring.OnEvent(FullEvent(i));
  }
  EXPECT_EQ(ring.total_events(), 20u);
  EXPECT_EQ(ring.size(), 8u);
  const std::vector<TraceEvent> snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].uid, 13 + i);  // oldest-to-newest: uids 13..20
  }
}

TEST(FlightRecorder, DumpIsParseableJsonl) {
  FlightRecorder ring(4);
  for (uint64_t i = 1; i <= 6; ++i) {
    ring.OnEvent(FullEvent(i));
  }
  const std::string path = ::testing::TempDir() + "dibs_ring_dump.jsonl";
  ASSERT_TRUE(ring.DumpToFile(path));
  std::ifstream in(path);
  std::string line;
  std::vector<uint64_t> uids;
  while (std::getline(in, line)) {
    TraceEvent d;
    ASSERT_TRUE(DecodeTraceEvent(line, &d)) << line;
    uids.push_back(d.uid);
  }
  EXPECT_EQ(uids, (std::vector<uint64_t>{3, 4, 5, 6}));
  std::remove(path.c_str());
}

TEST(TraceBusTest, SamplesPacketEventsAndPassesControlEvents) {
  struct Counter : TraceSink {
    int n = 0;
    void OnEvent(const TraceEvent&) override { ++n; }
  } sink;
  TraceBus bus;
  bus.AddSink(&sink);

  bus.OnEvent(FullEvent(1));  // the default rate passes every event
  EXPECT_EQ(sink.n, 1);

  bus.SetSample(0.0);
  bus.OnEvent(FullEvent(1));
  EXPECT_EQ(sink.n, 1);

  // A packet event passes exactly when its uid is in the sampled set.
  bus.SetSample(0.25);
  int expected = sink.n;
  for (uint64_t uid = 1; uid <= 200; ++uid) {
    TraceEvent e = FullEvent(1);
    e.uid = uid;
    bus.OnEvent(e);
    expected += SampledUid(uid, 0.25) ? 1 : 0;
  }
  EXPECT_EQ(sink.n, expected);
  EXPECT_GT(sink.n, 1);
  EXPECT_LT(sink.n, 201);

  // Control events (uid 0) carry no packet identity: sampling never drops
  // them.
  bus.SetSample(0.0);
  TraceEvent control;
  control.type = TraceEventType::kPause;
  control.node = 17;
  bus.OnEvent(control);
  EXPECT_EQ(sink.n, expected + 1);
}

TEST(TraceBusTest, SamplingIsAPureUidHash) {
  // The same uid set must be selected on every call — no RNG involved.
  int kept = 0;
  for (uint64_t uid = 1; uid <= 1000; ++uid) {
    const bool a = SampledUid(uid, 0.25);
    EXPECT_EQ(a, SampledUid(uid, 0.25));
    kept += a ? 1 : 0;
  }
  EXPECT_GT(kept, 150);
  EXPECT_LT(kept, 350);
  EXPECT_TRUE(SampledUid(123, 1.0));
  EXPECT_FALSE(SampledUid(123, 0.0));
}

TEST(TraceConfigTest, PerRunTracePathInsertsRunIndex) {
  EXPECT_EQ(PerRunTracePath("t.jsonl", 3), "t.run3.jsonl");
  EXPECT_EQ(PerRunTracePath("dir.d/t.jsonl", 0), "dir.d/t.run0.jsonl");
  EXPECT_EQ(PerRunTracePath("noext", 2), "noext.run2");
  EXPECT_EQ(PerRunTracePath("t.jsonl", -1), "t.jsonl");
  EXPECT_EQ(PerRunTracePath("", 4), "");
}

TEST(TraceConfigTest, EnvOverlayOverridesBase) {
  ::setenv("DIBS_TRACE", "1", 1);
  ::setenv("DIBS_TRACE_JSONL", "x.jsonl", 1);
  ::setenv("DIBS_TRACE_SAMPLE", "0.5", 1);
  ::setenv("DIBS_TRACE_DUMP_PATH", "d.jsonl", 1);
  const TraceConfig c = ApplyTraceEnv(TraceConfig{});
  ::unsetenv("DIBS_TRACE");
  ::unsetenv("DIBS_TRACE_JSONL");
  ::unsetenv("DIBS_TRACE_SAMPLE");
  ::unsetenv("DIBS_TRACE_DUMP_PATH");
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.jsonl_path, "x.jsonl");
  EXPECT_DOUBLE_EQ(c.sample, 0.5);
  EXPECT_EQ(c.dump_path, "d.jsonl");
}

TEST(TraceConfigTest, EnvOverlaySwitchIsACheckedBoolean) {
  TraceConfig base;
  base.enabled = true;
  ::setenv("DIBS_TRACE", "false", 1);
  const TraceConfig c = ApplyTraceEnv(base);
  ::unsetenv("DIBS_TRACE");
  EXPECT_FALSE(c.enabled);
}

// Sets one knob, applies the overlay, and returns the variable the EnvError
// named ("" when the value was accepted).
std::string RejectedKnob(const char* name, const char* value) {
  ::setenv(name, value, 1);
  std::string rejected;
  try {
    ApplyTraceEnv(TraceConfig{});
  } catch (const EnvError& e) {
    rejected = e.name();
  }
  ::unsetenv(name);
  return rejected;
}

TEST(TraceConfigTest, EnvOverlayRejectsMalformedKnobs) {
  EXPECT_EQ(RejectedKnob("DIBS_TRACE", "treu"), "DIBS_TRACE");
  EXPECT_EQ(RejectedKnob("DIBS_TRACE_SAMPLE", "0.5x"), "DIBS_TRACE_SAMPLE");
  EXPECT_EQ(RejectedKnob("DIBS_TRACE_SAMPLE", "2"), "DIBS_TRACE_SAMPLE");
  EXPECT_EQ(RejectedKnob("DIBS_TRACE_SAMPLE", "1"), "");
}

// What constructing run 3's session for `config` threw ("" when nothing).
std::string SessionError(const TraceConfig& config) {
  try {
    TraceSession session(config, /*run_index=*/3);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// An output path in a directory that does not exist.
std::string UnwritablePath(const std::string& file) {
  return ::testing::TempDir() + "dibs_no_such_dir/" + file;
}

// An output that cannot be opened fails the session before the run starts,
// and the crash handler is not left holding the destroyed flight recorder.
TEST(TraceSessionTest, UnwritableJsonlPathThrowsBeforeArming) {
  TraceConfig config;
  config.jsonl_path = UnwritablePath("t.jsonl");
  EXPECT_EQ(SessionError(config),
            "cannot open trace output '" + PerRunTracePath(config.jsonl_path, 3) + "'");
  EXPECT_FALSE(CrashDumpArmed());
}

TEST(TraceSessionTest, UnwritablePerfettoPathThrowsBeforeArming) {
  TraceConfig config;
  config.perfetto_path = UnwritablePath("p.json");
  EXPECT_EQ(SessionError(config),
            "cannot open trace output '" + PerRunTracePath(config.perfetto_path, 3) + "'");
  EXPECT_FALSE(CrashDumpArmed());
}

// A miniature DIBS scenario with buffers small enough to guarantee detours.
ExperimentConfig MiniDibs(uint64_t seed) {
  ExperimentConfig c = DibsConfig();
  c.fat_tree_k = 4;  // 16 hosts
  c.incast_degree = 8;
  c.qps = 400;
  c.response_bytes = 20000;
  c.net.switch_buffer_packets = 10;
  c.net.ecn_threshold_packets = 5;
  c.enable_background = false;
  c.duration = Time::Millis(100);
  c.drain = Time::Millis(50);
  c.seed = seed;
  return c;
}

TEST(TraceScenario, JourneysMatchSwitchLevelDetourCounts) {
  ExperimentConfig c = MiniDibs(11);
  c.trace.enabled = true;
  Scenario scenario(c);
  const ScenarioResult r = scenario.Run();
  ASSERT_NE(scenario.trace(), nullptr);
  const JourneyBuilder& journeys = scenario.trace()->journeys();

  EXPECT_GT(r.detours, 0u);
  uint64_t journey_detours = 0;
  for (const auto& [uid, j] : journeys.journeys()) {
    journey_detours += j.detour_count;
    // Per journey, the reconstructed path shows exactly detour_count
    // detoured hops.
    uint32_t detoured_hops = 0;
    for (const JourneyHop& hop : j.hops) {
      detoured_hops += hop.detoured ? 1 : 0;
    }
    EXPECT_EQ(detoured_hops, j.detour_count) << "uid " << uid;
  }
  EXPECT_EQ(journey_detours, r.detours);
  EXPECT_EQ(journeys.delivered_packets(), r.delivered_packets);
  EXPECT_EQ(r.loop_packets, journeys.loop_packets());
}

// The session's Perfetto export of a small traced DIBS cell is valid JSON
// with one process_name per node its events use, named from the topology,
// queue slices, and detour flow arrows whose "s" and "f" ends pair up.
TEST(TraceScenario, PerfettoExportNamesNodesAndPairsDetourArrows) {
  ExperimentConfig c = MiniDibs(11);
  c.duration = Time::Millis(30);
  c.drain = Time::Millis(20);
  c.trace.enabled = true;
  c.trace.perfetto_path = ::testing::TempDir() + "dibs_perfetto_export.json";
  std::remove(c.trace.perfetto_path.c_str());
  Scenario scenario(c);
  ASSERT_GT(scenario.Run().detours, 0u);

  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::Parse(ReadFile(c.trace.perfetto_path), &doc, &error)) << error;
  std::remove(c.trace.perfetto_path.c_str());
  const json::Value* events = json::Find(doc, "traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<int64_t, std::string> process_names;
  std::set<int64_t> pids_used;
  size_t queue_slices = 0;
  std::map<uint64_t, int> arrow_ends;  // arrow id -> 1 (s) | 2 (f)
  for (const json::Value& e : events->items) {
    std::string ph;
    std::string cat;
    int64_t pid = -1;
    json::ReadString(e, "ph", &ph);
    json::ReadString(e, "cat", &cat);
    json::ReadInt(e, "pid", &pid);
    if (ph == "M") {
      std::string name;
      const json::Value* args = json::Find(e, "args");
      ASSERT_NE(args, nullptr);
      json::ReadString(*args, "name", &name);
      EXPECT_TRUE(process_names.emplace(pid, name).second) << "pid " << pid << " named twice";
      continue;
    }
    pids_used.insert(pid);
    queue_slices += ph == "X" && cat == "queue" ? 1 : 0;
    if (ph == "s" || ph == "f") {
      uint64_t id = 0;
      json::ReadInt(e, "id", &id);
      arrow_ends[id] |= ph == "s" ? 1 : 2;
    }
  }
  for (const int64_t pid : pids_used) {
    EXPECT_EQ(process_names.count(pid), 1u) << "pid " << pid << " has no process_name";
  }
  for (const auto& [pid, name] : process_names) {
    EXPECT_EQ(name, scenario.network().topology().node(static_cast<int>(pid - 1)).name);
  }
  EXPECT_GT(queue_slices, 0u);
  size_t paired = 0;
  for (const auto& [id, ends] : arrow_ends) {
    paired += ends == 3 ? 1 : 0;
  }
  EXPECT_GT(paired, 0u) << "no detour arrow has both its s and f ends";
}

TEST(TraceScenario, TracedRunIsBitIdenticalToUntraced) {
  const ScenarioResult plain = RunScenario(MiniDibs(23));

  ExperimentConfig traced_cfg = MiniDibs(23);
  traced_cfg.trace.enabled = true;
  const ScenarioResult traced = RunScenario(traced_cfg);

  // Attaching the trace bus must not perturb the simulation at all.
  EXPECT_EQ(traced.events_processed, plain.events_processed);
  EXPECT_EQ(traced.detours, plain.detours);
  EXPECT_EQ(traced.drops, plain.drops);
  EXPECT_EQ(traced.delivered_packets, plain.delivered_packets);
  EXPECT_DOUBLE_EQ(traced.qct99_ms, plain.qct99_ms);
  EXPECT_EQ(traced.queries_completed, plain.queries_completed);
  EXPECT_EQ(traced.queueing_delay_us.count, plain.queueing_delay_us.count);
  EXPECT_DOUBLE_EQ(traced.queueing_delay_us.mean, plain.queueing_delay_us.mean);
}

// The DIBS_TRACE* knobs reach a run only through its config, where the
// benches put them: a Scenario whose config leaves tracing off builds no
// trace session and writes no file, whatever the environment says.
TEST(TraceScenario, EnvironmentDoesNotTraceAnUntracedConfig) {
  const std::string path = ::testing::TempDir() + "dibs_env_trace.jsonl";
  std::remove(path.c_str());
  ::setenv("DIBS_TRACE", "1", 1);
  ::setenv("DIBS_TRACE_JSONL", path.c_str(), 1);
  ExperimentConfig c = MiniDibs(5);
  c.duration = Time::Millis(10);
  c.drain = Time::Millis(10);
  bool traced = false;
  {
    Scenario scenario(c);
    traced = scenario.trace() != nullptr;
    scenario.Run();
  }
  ::unsetenv("DIBS_TRACE");
  ::unsetenv("DIBS_TRACE_JSONL");
  EXPECT_FALSE(traced);
  EXPECT_FALSE(std::ifstream(path).good()) << path << " was written";
  std::remove(path.c_str());
}

TEST(TraceScenario, ValidationErrorDumpsFlightRecorder) {
  validate::ScopedEnable on;
  ExperimentConfig c = MiniDibs(31);
  c.duration = Time::Millis(30);
  c.drain = Time::Millis(20);
  c.trace.enabled = true;
  c.trace.dump_path = ::testing::TempDir() + "dibs_violation_dump.jsonl";
  std::remove(c.trace.dump_path.c_str());

  Scenario scenario(c);
  ASSERT_NE(scenario.network().invariant_checker(), nullptr);
  // Phantom injection: the ledger now expects a packet that will never reach
  // a terminal state, so CheckBalanced at the cutoff must throw.
  Packet phantom;
  phantom.uid = 0xDEADull;
  phantom.src = 0;
  phantom.dst = 1;
  phantom.flow = 777;
  scenario.network().invariant_checker()->OnEvent(MakeTracePacketEvent(
      TraceEventType::kHostSend, Time::Zero(), scenario.network().topology().host_node(0),
      /*port=*/-1, phantom));

  EXPECT_THROW(scenario.Run(), ValidationError);

  // The dump exists and every line decodes.
  std::ifstream in(c.trace.dump_path);
  ASSERT_TRUE(in.is_open()) << c.trace.dump_path;
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    TraceEvent d;
    ASSERT_TRUE(DecodeTraceEvent(line, &d)) << line;
    ++lines;
  }
  EXPECT_GT(lines, 0u);
  std::remove(c.trace.dump_path.c_str());
}

// The sweep engine's byte-identity contract extends to trace JSONL: the same
// spec produces identical per-run trace files at any worker count and under
// process isolation (events carry sim time only; sampling is a uid hash).
TEST(TraceSweep, JsonlIsByteIdenticalAcrossJobsAndIsolation) {
  const std::string base = ::testing::TempDir() + "dibs_sweep_trace.jsonl";
  SweepSpec spec;
  spec.name = "trace-identity";
  spec.base = MiniDibs(5);
  spec.base.duration = Time::Millis(40);
  spec.base.drain = Time::Millis(20);
  spec.base.trace.enabled = true;
  spec.base.trace.jsonl_path = base;
  spec.replications = 3;
  spec.seed = 5;

  auto run_and_collect = [&](int jobs, IsolationMode mode) {
    for (int i = 0; i < spec.replications; ++i) {
      std::remove(PerRunTracePath(base, i).c_str());
    }
    SweepOptions opts;
    opts.jobs = jobs;
    opts.isolate = mode;
    opts.progress = false;
    SweepEngine engine(opts);
    engine.Run(spec);
    std::vector<std::string> files;
    for (int i = 0; i < spec.replications; ++i) {
      files.push_back(ReadFile(PerRunTracePath(base, i)));
      EXPECT_FALSE(files.back().empty()) << "run " << i;
    }
    return files;
  };

  const std::vector<std::string> serial = run_and_collect(1, IsolationMode::kThread);
  const std::vector<std::string> threaded = run_and_collect(4, IsolationMode::kThread);
  const std::vector<std::string> isolated = run_and_collect(2, IsolationMode::kProcess);
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(serial, isolated);
  for (int i = 0; i < spec.replications; ++i) {
    std::remove(PerRunTracePath(base, i).c_str());
  }
}

// MiniDibs under the guard, driven hard enough that its fixed thresholds
// trip: every other host answers each query (degree 15 of 16) at 1000 qps
// into 4-packet buffers, so the detour storm at the aggregator's ToR trips
// breakers within the 32 ms run. The storm is kept short because every
// detour is traced.
ExperimentConfig MiniGuarded(uint64_t seed) {
  ExperimentConfig c = MiniDibs(seed);
  c.net.guard = DibsGuardConfig().net.guard;
  c.net.switch_buffer_packets = 4;
  c.net.ecn_threshold_packets = 3;
  c.incast_degree = 15;
  c.qps = 1000;
  c.response_bytes = 12000;
  c.duration = Time::Millis(32);
  c.drain = Time::Millis(20);
  return c;
}

TEST(TraceScenario, GuardTransitionsVisibleInTraceAndResult) {
  ExperimentConfig c = MiniGuarded(11);
  c.trace.enabled = true;
  c.trace.jsonl_path = ::testing::TempDir() + "dibs_guard_trace.jsonl";
  std::remove(c.trace.jsonl_path.c_str());
  Scenario scenario(c);
  const ScenarioResult r = scenario.Run();

  // The breaker tripped and the result columns say so coherently.
  ASSERT_GT(r.guard_trips, 0u);
  EXPECT_GE(r.guard_transitions, r.guard_trips);
  EXPECT_GT(r.guard_time_suppressed_ms, 0.0);
  EXPECT_GT(r.guard_suppressed_drops, 0u);

  // Every trip is visible in the trace as an armed->suppressed transition,
  // and decoded transitions reproduce the recorder's count exactly.
  std::ifstream in(c.trace.jsonl_path);
  ASSERT_TRUE(in.is_open()) << c.trace.jsonl_path;
  std::string line;
  uint64_t transitions = 0;
  uint64_t trips = 0;
  while (std::getline(in, line)) {
    TraceEvent d;
    ASSERT_TRUE(DecodeTraceEvent(line, &d)) << line;
    if (d.type != TraceEventType::kGuardTransition) {
      continue;
    }
    ++transitions;
    if (static_cast<GuardState>(d.port) == GuardState::kArmed &&
        static_cast<GuardState>(d.queue_depth) == GuardState::kSuppressed) {
      ++trips;
    }
  }
  EXPECT_EQ(transitions, r.guard_transitions);
  EXPECT_EQ(trips, r.guard_trips);
  std::remove(c.trace.jsonl_path.c_str());
}

// Satellite of the determinism contract: the guard's breaker decisions are
// pure counter+clock arithmetic, so a guarded AND traced fig14-style slice
// stays byte-identical across worker counts and process isolation.
TEST(TraceSweep, GuardedJsonlIsByteIdenticalAcrossJobsAndIsolation) {
  const std::string base = ::testing::TempDir() + "dibs_guard_sweep_trace.jsonl";
  SweepSpec spec;
  spec.name = "guard-identity";
  spec.base = MiniGuarded(5);
  spec.base.trace.enabled = true;
  spec.base.trace.jsonl_path = base;
  spec.replications = 2;
  spec.seed = 5;

  auto run_and_collect = [&](int jobs, IsolationMode mode) {
    for (int i = 0; i < spec.replications; ++i) {
      std::remove(PerRunTracePath(base, i).c_str());
    }
    SweepOptions opts;
    opts.jobs = jobs;
    opts.isolate = mode;
    opts.progress = false;
    SweepEngine engine(opts);
    engine.Run(spec);
    std::vector<std::string> files;
    for (int i = 0; i < spec.replications; ++i) {
      files.push_back(ReadFile(PerRunTracePath(base, i)));
      EXPECT_FALSE(files.back().empty()) << "run " << i;
    }
    return files;
  };

  const std::vector<std::string> serial = run_and_collect(1, IsolationMode::kThread);
  // The guarded trace actually exercises the breaker (not a quiet no-op).
  EXPECT_NE(serial[0].find("guard-transition"), std::string::npos);
  const std::vector<std::string> threaded = run_and_collect(8, IsolationMode::kThread);
  const std::vector<std::string> isolated = run_and_collect(2, IsolationMode::kProcess);
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(serial, isolated);
  for (int i = 0; i < spec.replications; ++i) {
    std::remove(PerRunTracePath(base, i).c_str());
  }
}

}  // namespace
}  // namespace dibs
