// Chaos harness tests: generator determinism, spec codec round-trips and
// envelope enforcement, oracle suite on healthy specs, the planted-bug
// end-to-end loop (find -> shrink -> corpus -> red/green replay), and
// shrinker minimality/determinism.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/chaos/chaos_spec.h"
#include "src/chaos/corpus.h"
#include "src/chaos/fuzz_driver.h"
#include "src/chaos/generator.h"
#include "src/chaos/oracles.h"
#include "src/chaos/shrinker.h"
#include "src/chaos/spec_codec.h"
#include "src/harness/scenario.h"
#include "src/util/json.h"
#include "tests/util/scoped_env.h"

namespace dibs::chaos {
namespace {

// Small per-run budgets keep the suite fast; every spec the tests execute
// finishes well under this.
OracleOptions FastOptions() {
  OracleOptions options;
  options.event_budget = 5000000;
  options.run_timeout_sec = 60;
  return options;
}

std::string TempDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "chaos_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Generator, SameSeedYieldsByteIdenticalStream) {
  for (int i = 0; i < 32; ++i) {
    const std::string a = EncodeChaosSpec(GenerateSpec(99, i));
    const std::string b = EncodeChaosSpec(GenerateSpec(99, i));
    ASSERT_EQ(a, b) << "case " << i;
  }
}

TEST(Generator, DifferentSeedsAndCasesDiverge) {
  EXPECT_NE(EncodeChaosSpec(GenerateSpec(1, 0)), EncodeChaosSpec(GenerateSpec(2, 0)));
  EXPECT_NE(EncodeChaosSpec(GenerateSpec(1, 0)), EncodeChaosSpec(GenerateSpec(1, 1)));
}

TEST(Generator, EverySpecSurvivesItsOwnEnvelope) {
  // Decode enforces the envelope; every generated spec must round-trip
  // byte-for-byte through it (the generator never draws out of bounds, and
  // the codec loses nothing).
  for (int i = 0; i < 64; ++i) {
    const ChaosSpec spec = GenerateSpec(7, i);
    const std::string encoded = EncodeChaosSpec(spec);
    ChaosSpec decoded;
    ASSERT_NO_THROW(decoded = DecodeChaosSpec(encoded)) << encoded;
    EXPECT_EQ(encoded, EncodeChaosSpec(decoded)) << "case " << i;
  }
}

// Every knob the generator varies must reach the run: changing it alone
// changes the canonical record. A knob that never reached a packet would
// let the fuzzer claim coverage it never had.
TEST(Generator, EveryVariedKnobReachesTheRun) {
  // Busy enough that every knob shows: shallow buffers and a wide incast
  // keep detours (and so TTL expiry) frequent.
  ChaosSpec base;
  base.seed = 11;
  base.switch_buffer_packets = 12;
  base.ecn_threshold_packets = 6;
  base.qps = 1200;
  base.incast_degree = 15;
  base.duration_ms = 4;
  base.drain_ms = 40;
  const auto record = [](const ChaosSpec& s) {
    RunRecord rec;
    rec.result = RunScenario(s.ToConfig());
    return CanonicalRecord(rec);
  };
  struct Knob {
    const char* name;  // its key in the spec codec
    std::function<void(ChaosSpec&)> prerequisite;
    std::function<void(ChaosSpec&)> change;
  };
  const auto none = [](ChaosSpec&) {};
  const auto guarded = [](ChaosSpec& s) { s.guard_enabled = true; };
  const Knob knobs[] = {
      {"seed", none, [](ChaosSpec& s) { s.seed = 12; }},
      {"topology", none, [](ChaosSpec& s) { s.topology = "leaf-spine"; }},
      {"fat_tree_k", none, [](ChaosSpec& s) { s.fat_tree_k = 6; }},
      {"oversubscription", none, [](ChaosSpec& s) { s.oversubscription = 4; }},
      {"switch_buffer_packets", none, [](ChaosSpec& s) { s.switch_buffer_packets = 24; }},
      {"ecn_threshold_packets", none, [](ChaosSpec& s) { s.ecn_threshold_packets = 3; }},
      {"use_shared_buffer", none, [](ChaosSpec& s) { s.use_shared_buffer = true; }},
      {"detour_policy", none, [](ChaosSpec& s) { s.detour_policy = "load-aware"; }},
      {"initial_ttl", none, [](ChaosSpec& s) { s.initial_ttl = 8; }},
      {"guard_enabled", none, guarded},
      {"guard_adaptive_ttl", guarded, [](ChaosSpec& s) { s.guard_adaptive_ttl = true; }},
      {"guard_watchdog", none, [](ChaosSpec& s) { s.guard_watchdog = true; }},
      {"enable_background", none, [](ChaosSpec& s) { s.enable_background = true; }},
      {"bg_interarrival_ms", [](ChaosSpec& s) { s.enable_background = true; },
       [](ChaosSpec& s) { s.bg_interarrival_ms = 2; }},
      {"qps", none, [](ChaosSpec& s) { s.qps = 600; }},
      {"incast_degree", none, [](ChaosSpec& s) { s.incast_degree = 8; }},
      {"response_bytes", none, [](ChaosSpec& s) { s.response_bytes = 40000; }},
      {"duration_ms", none, [](ChaosSpec& s) { s.duration_ms = 6; }},
      {"drain_ms", none, [](ChaosSpec& s) { s.drain_ms = 10; }},
      {"faults", none,
       [](ChaosSpec& s) { s.faults = fault::FaultPlan().LinkDown(0, Time::Millis(1)).events(); }},
  };

  // The list covers every field the codec writes except the case index,
  // which only names the case.
  json::Value encoded;
  std::string error;
  ASSERT_TRUE(json::Parse(EncodeChaosSpec(base), &encoded, &error)) << error;
  for (const auto& [key, value] : encoded.fields) {
    const bool listed = std::any_of(std::begin(knobs), std::end(knobs),
                                    [&](const Knob& k) { return key == k.name; });
    EXPECT_TRUE(listed || key == "case") << "spec field " << key << " has no knob check";
  }

  for (const Knob& knob : knobs) {
    ChaosSpec before = base;
    knob.prerequisite(before);
    ChaosSpec after = before;
    knob.change(after);
    EXPECT_NE(record(after), record(before)) << knob.name << " never reached the run";
  }
}

TEST(SpecCodec, RejectsOutOfEnvelopeAndMalformedSpecs) {
  // Default-constructed spec: known field values, so the textual mutations
  // below always find their targets.
  const std::string base = EncodeChaosSpec(ChaosSpec{});
  auto mutate = [&](const std::string& from, const std::string& to) {
    std::string text = base;
    const size_t pos = text.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    text.replace(pos, from.size(), to);
    EXPECT_THROW(DecodeChaosSpec(text), CodecError) << text;
  };
  mutate("\"topology\":\"fat-tree\"", "\"topology\":\"ring\"");
  mutate("\"fat_tree_k\":4", "\"fat_tree_k\":5");       // odd
  mutate("\"fat_tree_k\":4", "\"fat_tree_k\":64");      // out of range
  mutate("\"initial_ttl\":", "\"initial_ttl\":0,\"x\":");
  mutate("\"oversubscription\":", "\"oversubscription\":1e999,\"x\":");
  mutate("\"detour_policy\":\"", "\"detour_policy\":\"telepathy");
  mutate("\"duration_ms\":", "\"duration_ms\":0.001,\"x\":");
  mutate("\"response_bytes\":", "\"response_bytes\":5,\"x\":");
  mutate("\"qps\":", "\"qps\":\"many\",\"x\":");        // type confusion
  mutate("\"faults\":[", "\"faults\":{},\"x\":[");      // type confusion
  EXPECT_THROW(DecodeChaosSpec("not json"), CodecError);
  EXPECT_THROW(DecodeChaosSpec("[1,2,3]"), CodecError);
  EXPECT_THROW(
      DecodeChaosSpec(
          R"({"faults":[{"at_us":1,"kind":"warp-core-breach","target":0}]})"),
      CodecError);
}

TEST(SpecCodec, FaultTimesRoundTripExactly) {
  ChaosSpec spec = GenerateSpec(1, 0);
  spec.faults.clear();
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kLinkDown;
  e.target = 3;
  e.at = Time::Micros(1234);
  spec.faults.push_back(e);
  const ChaosSpec back = DecodeChaosSpec(EncodeChaosSpec(spec));
  ASSERT_EQ(back.faults.size(), 1u);
  EXPECT_EQ(back.faults[0].at, Time::Micros(1234));
}

TEST(Oracles, HealthySpecsPassTheFullSuite) {
  const OracleOptions options = FastOptions();
  for (int i = 0; i < 2; ++i) {
    const OracleVerdict verdict =
        CheckSpec(GenerateSpec(1, i), options, /*force_heavy=*/true);
    EXPECT_TRUE(verdict.passed)
        << "case " << i << " failed '" << verdict.oracle
        << "': " << verdict.detail;
  }
}

TEST(Oracles, UnknownOracleNameFailsFast) {
  const OracleVerdict verdict =
      CheckOracle(GenerateSpec(1, 0), "horoscope", FastOptions());
  EXPECT_FALSE(verdict.passed);
}

// Seed 7, case 0 delivers far more than 64 packets, so the planted ledger
// leak (skip every 64th delivery) always fires under DIBS_CHAOS_PLANT.
TEST(PlantedBug, FoundShrunkPersistedAndReplaysRedThenGreen) {
  const std::string corpus_dir = TempDir("planted");
  FuzzOptions options;
  options.seed = 7;
  options.cases = 1;
  options.max_failures = 1;
  options.corpus_dir = corpus_dir;
  options.oracle = FastOptions();

  std::ostringstream log;
  FuzzReport report;
  {
    ScopedEnv plant("DIBS_CHAOS_PLANT", "1");
    report = RunFuzz(options, log);
  }
  ASSERT_EQ(report.findings.size(), 1u) << log.str();
  const FuzzFinding& finding = report.findings[0];
  EXPECT_EQ(finding.entry.oracle, "validate");
  EXPECT_FALSE(finding.corpus_path.empty());

  // Acceptance bar: the shrinker must at least halve the spec.
  EXPECT_LE(finding.entry.spec.Size(), 0.5 * finding.original_size)
      << log.str();

  // The persisted entry round-trips and replays red while the bug is in,
  // green once it is "fixed" (plant off).
  const CorpusEntry entry = ReadCorpusEntry(finding.corpus_path);
  EXPECT_EQ(EncodeChaosSpec(entry.spec), EncodeChaosSpec(finding.entry.spec));
  {
    ScopedEnv plant("DIBS_CHAOS_PLANT", "1");
    EXPECT_FALSE(ReplayEntry(entry, options.oracle).passed);
  }
  const OracleVerdict green = ReplayEntry(entry, options.oracle);
  EXPECT_TRUE(green.passed) << green.oracle << ": " << green.detail;
  std::filesystem::remove_all(corpus_dir);
}

TEST(Shrinker, DeterministicTrajectoryAcrossRunsJobsAndIsolation) {
  const ChaosSpec failing = GenerateSpec(7, 0);
  const OracleOptions options = FastOptions();
  ScopedEnv plant("DIBS_CHAOS_PLANT", "1");
  ASSERT_FALSE(CheckOracle(failing, "validate", options).passed);

  const ShrinkResult first = Shrink(failing, "validate", options);
  EXPECT_FALSE(CheckOracle(first.minimal, "validate", options).passed)
      << "shrunk spec must still fail the same oracle";
  EXPECT_LT(first.minimal.Size(), failing.Size());

  // Same inputs, same trajectory — re-run plain, then under a DIBS_JOBS
  // override (the oracle sweeps pin their own job counts, so the env knob
  // must not leak into the shrink path).
  const ShrinkResult again = Shrink(failing, "validate", options);
  EXPECT_EQ(first.trajectory, again.trajectory);
  EXPECT_EQ(EncodeChaosSpec(first.minimal), EncodeChaosSpec(again.minimal));

  {
    ScopedEnv jobs("DIBS_JOBS", "3");
    const ShrinkResult jobs3 = Shrink(failing, "validate", options);
    EXPECT_EQ(first.trajectory, jobs3.trajectory);
    EXPECT_EQ(EncodeChaosSpec(first.minimal), EncodeChaosSpec(jobs3.minimal));
  }
  {
    ScopedEnv isolate("DIBS_ISOLATE", "process");
    const ShrinkResult forked = Shrink(failing, "validate", options);
    EXPECT_EQ(first.trajectory, forked.trajectory);
    EXPECT_EQ(EncodeChaosSpec(first.minimal), EncodeChaosSpec(forked.minimal));
  }
}

TEST(Shrinker, FixpointIsOneWayMinimal) {
  // Every single transform applied to the shrinker's output either fails to
  // apply or no longer fails the oracle — i.e. the result is 1-minimal with
  // respect to the transform set, not just "smaller".
  const OracleOptions options = FastOptions();
  ScopedEnv plant("DIBS_CHAOS_PLANT", "1");
  const ShrinkResult result = Shrink(GenerateSpec(7, 0), "validate", options);
  const ShrinkResult again = Shrink(result.minimal, "validate", options);
  EXPECT_EQ(again.accepted_steps, 0);
  EXPECT_EQ(EncodeChaosSpec(again.minimal), EncodeChaosSpec(result.minimal));
}

TEST(Corpus, EntryRoundTripsAndRejectsMalformed) {
  CorpusEntry entry;
  entry.spec = GenerateSpec(3, 1);
  entry.oracle = "determinism";
  entry.detail = "records diverged at byte 42";
  entry.master_seed = 3;
  entry.found_case = 1;
  const std::string text = EncodeCorpusEntry(entry);
  const CorpusEntry back = DecodeCorpusEntry(text);
  EXPECT_EQ(back.oracle, entry.oracle);
  EXPECT_EQ(back.detail, entry.detail);
  EXPECT_EQ(back.master_seed, entry.master_seed);
  EXPECT_EQ(back.found_case, entry.found_case);
  EXPECT_EQ(EncodeChaosSpec(back.spec), EncodeChaosSpec(entry.spec));

  EXPECT_THROW(DecodeCorpusEntry("{}"), CodecError);        // no oracle/spec
  EXPECT_THROW(DecodeCorpusEntry("{\"oracle\":\"x\"}"), CodecError);
  EXPECT_THROW(DecodeCorpusEntry("garbage"), CodecError);
}

TEST(Corpus, ListIsSortedAndScopedToJson) {
  const std::string dir = TempDir("list");
  CorpusEntry entry;
  entry.spec = GenerateSpec(1, 0);
  entry.oracle = "validate";
  WriteCorpusEntry(dir, "bbb", entry);
  WriteCorpusEntry(dir, "aaa", entry);
  { std::ofstream(dir + "/notes.txt") << "ignored"; }
  const std::vector<std::string> entries = ListCorpus(dir);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_NE(entries[0].find("aaa"), std::string::npos);
  EXPECT_NE(entries[1].find("bbb"), std::string::npos);
  EXPECT_TRUE(ListCorpus(dir + "/does-not-exist").empty());
  std::filesystem::remove_all(dir);
}

TEST(FuzzDriver, CleanStreamReportsOk) {
  FuzzOptions options;
  options.seed = 1;
  options.cases = 3;
  options.oracle = FastOptions();
  options.oracle.heavy_every = 0;  // light oracles only: keep this test quick
  std::ostringstream log;
  const FuzzReport report = RunFuzz(options, log);
  EXPECT_TRUE(report.ok()) << log.str();
  EXPECT_EQ(report.cases_run, 3);
}

}  // namespace
}  // namespace dibs::chaos
