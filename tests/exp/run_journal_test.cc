// RunJournal contract: fingerprint stability/sensitivity, append/load
// round-trip with last-record-per-index-wins, torn-final-line tolerance
// (what a kill -9 mid-write leaves behind), and the fingerprint-mismatch
// refusal that keeps a journal from splicing a different sweep's rows into
// the output.

#include "src/exp/run_journal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/record_codec.h"
#include "src/exp/sweep_spec.h"
#include "src/harness/config.h"
#include "src/util/json.h"

namespace dibs {
namespace {

std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + "dibs_journal_" + stem + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

std::vector<RunSpec> SampleRuns() {
  SweepSpec spec;
  spec.name = "journal";
  spec.base = DctcpConfig();
  spec.axes.push_back(SweepAxis::Of<int>(
      "degree", {4, 8}, [](ExperimentConfig& c, int d) { c.incast_degree = d; }));
  spec.seed = 11;
  return spec.Expand();
}

RunRecord SampleRecord(int index) {
  RunRecord r;
  r.index = index;
  r.sweep = "journal";
  r.points = {{"degree", index == 0 ? "4" : "8"}};
  r.seed = 11;
  r.result.drops = 100 + static_cast<uint64_t>(index);
  return r;
}

TEST(DigestConfigTest, StableForEqualConfigsSensitiveToKnobs) {
  const ExperimentConfig base = DctcpConfig();
  EXPECT_EQ(DigestConfig(base), DigestConfig(DctcpConfig()));

  ExperimentConfig buffer = base;
  buffer.net.switch_buffer_packets += 1;
  EXPECT_NE(DigestConfig(buffer), DigestConfig(base));

  ExperimentConfig seed = base;
  seed.seed += 1;
  EXPECT_NE(DigestConfig(seed), DigestConfig(base));

  ExperimentConfig faulty = base;
  faulty.faults.LinkFlap(/*link=*/3, Time::Millis(10), Time::Millis(5),
                         Time::Millis(5), /*cycles=*/1);
  EXPECT_NE(DigestConfig(faulty), DigestConfig(base));

  // The engine-assigned matrix position must NOT change the digest, or
  // resume fingerprints could never match across invocations.
  ExperimentConfig positioned = base;
  positioned.sweep_run_index = 5;
  EXPECT_EQ(DigestConfig(positioned), DigestConfig(base));
}

TEST(DigestConfigTest, SensitiveToEveryGuardKnob) {
  // Each guard switch changes forwarding decisions or recorded columns, so
  // flipping it must invalidate journal resume.
  const ExperimentConfig guarded = DibsGuardConfig();
  ExperimentConfig enabled = guarded;
  enabled.net.guard.enabled = false;
  EXPECT_NE(DigestConfig(enabled), DigestConfig(guarded));

  ExperimentConfig adaptive = guarded;
  adaptive.net.guard.adaptive_ttl = false;
  EXPECT_NE(DigestConfig(adaptive), DigestConfig(guarded));

  ExperimentConfig watchdog = guarded;
  watchdog.net.guard.watchdog = false;
  EXPECT_NE(DigestConfig(watchdog), DigestConfig(guarded));
}

// One config edit, named for the leaf it changes.
struct LeafEdit {
  const char* leaf;
  std::function<void(ExperimentConfig&)> apply;
};

// The guarded preset plus one fault event, so the fault-event fields have
// something to change.
ExperimentConfig DigestBase() {
  ExperimentConfig c = DibsGuardConfig();
  c.faults.DegradeLink(/*link=*/3, Time::Millis(10), /*loss_probability=*/0.1,
                       /*extra_jitter=*/Time::Micros(5));
  return c;
}

TEST(DigestConfigTest, EveryRemainingLeafReachesTheDigest) {
  // Every result-shaping leaf of ExperimentConfig, each moved off its
  // DigestBase() value. A field added to the config belongs here, and in
  // DigestConfig, unless it is observability like `trace`.
  const std::vector<LeafEdit> shaping = {
      {"topology", [](ExperimentConfig& c) { c.topology = TopologyKind::kLeafSpine; }},
      {"fat_tree_k", [](ExperimentConfig& c) { c.fat_tree_k = 4; }},
      {"oversubscription", [](ExperimentConfig& c) { c.oversubscription = 4.0; }},
      {"net.switch_buffer_packets", [](ExperimentConfig& c) { c.net.switch_buffer_packets = 101; }},
      {"net.ecn_threshold_packets", [](ExperimentConfig& c) { c.net.ecn_threshold_packets = 21; }},
      {"net.pfabric_queues", [](ExperimentConfig& c) { c.net.pfabric_queues = true; }},
      {"net.pfabric_buffer_packets",
       [](ExperimentConfig& c) { c.net.pfabric_buffer_packets = 25; }},
      {"net.use_shared_buffer", [](ExperimentConfig& c) { c.net.use_shared_buffer = true; }},
      {"net.shared_buffer_packets",
       [](ExperimentConfig& c) { c.net.shared_buffer_packets = 1134; }},
      {"net.shared_buffer_alpha", [](ExperimentConfig& c) { c.net.shared_buffer_alpha = 2.0; }},
      {"net.detour_policy", [](ExperimentConfig& c) { c.net.detour_policy = "none"; }},
      {"net.initial_ttl", [](ExperimentConfig& c) { c.net.initial_ttl = 12; }},
      {"net.pfc_enabled", [](ExperimentConfig& c) { c.net.pfc_enabled = true; }},
      {"net.pfc_xoff_packets", [](ExperimentConfig& c) { c.net.pfc_xoff_packets = 81; }},
      {"net.pfc_xon_packets", [](ExperimentConfig& c) { c.net.pfc_xon_packets = 41; }},
      {"net.guard.enabled", [](ExperimentConfig& c) { c.net.guard.enabled = false; }},
      {"net.guard.adaptive_ttl", [](ExperimentConfig& c) { c.net.guard.adaptive_ttl = false; }},
      {"net.guard.watchdog", [](ExperimentConfig& c) { c.net.guard.watchdog = false; }},
      {"net.packet_level_ecmp", [](ExperimentConfig& c) { c.net.packet_level_ecmp = true; }},
      {"transport", [](ExperimentConfig& c) { c.transport = TransportKind::kPfabric; }},
      {"tcp.init_cwnd_segments", [](ExperimentConfig& c) { c.tcp.init_cwnd_segments = 11; }},
      {"tcp.min_rto", [](ExperimentConfig& c) { c.tcp.min_rto = Time::Millis(1); }},
      {"tcp.dupack_threshold", [](ExperimentConfig& c) { c.tcp.dupack_threshold = 3; }},
      {"pfabric.window_segments", [](ExperimentConfig& c) { c.pfabric.window_segments = 13; }},
      {"enable_background", [](ExperimentConfig& c) { c.enable_background = false; }},
      {"bg_interarrival", [](ExperimentConfig& c) { c.bg_interarrival = Time::Millis(60); }},
      {"enable_query", [](ExperimentConfig& c) { c.enable_query = false; }},
      {"qps", [](ExperimentConfig& c) { c.qps = 600; }},
      {"incast_degree", [](ExperimentConfig& c) { c.incast_degree = 41; }},
      {"response_bytes", [](ExperimentConfig& c) { c.response_bytes = 40000; }},
      {"duration", [](ExperimentConfig& c) { c.duration = Time::Seconds(2); }},
      {"drain", [](ExperimentConfig& c) { c.drain = Time::Millis(100); }},
      {"seed", [](ExperimentConfig& c) { c.seed = 2; }},
      {"faults (a second event)",
       [](ExperimentConfig& c) { c.faults.RestoreLink(3, Time::Millis(20)); }},
      {"faults[0].at",
       [](ExperimentConfig& c) {
         c.faults = fault::FaultPlan().DegradeLink(3, Time::Millis(11), 0.1, Time::Micros(5));
       }},
      {"faults[0].target",
       [](ExperimentConfig& c) {
         c.faults = fault::FaultPlan().DegradeLink(4, Time::Millis(10), 0.1, Time::Micros(5));
       }},
      {"faults[0].loss_probability",
       [](ExperimentConfig& c) {
         c.faults = fault::FaultPlan().DegradeLink(3, Time::Millis(10), 0.2, Time::Micros(5));
       }},
      {"faults[0].extra_jitter",
       [](ExperimentConfig& c) {
         c.faults = fault::FaultPlan().DegradeLink(3, Time::Millis(10), 0.1, Time::Micros(6));
       }},
      {"monitor_interval", [](ExperimentConfig& c) { c.monitor_interval = Time::Millis(2); }},
  };
  const uint64_t base = DigestConfig(DigestBase());
  for (const LeafEdit& edit : shaping) {
    ExperimentConfig c = DigestBase();
    edit.apply(c);
    EXPECT_NE(DigestConfig(c), base) << edit.leaf << " does not reach the digest";
  }
  // faults[0].kind: two plans that differ in the event kind alone (a link
  // fault other than DegradeLink carries no loss or jitter).
  ExperimentConfig down = DigestBase();
  down.faults = fault::FaultPlan().LinkDown(3, Time::Millis(10));
  ExperimentConfig up = DigestBase();
  up.faults = fault::FaultPlan().LinkUp(3, Time::Millis(10));
  EXPECT_NE(DigestConfig(down), DigestConfig(up)) << "faults[0].kind does not reach the digest";

  // Observability and bookkeeping: resuming with tracing toggled or from
  // another matrix position must still match.
  const std::vector<LeafEdit> inert = {
      {"trace.enabled", [](ExperimentConfig& c) { c.trace.enabled = true; }},
      {"trace.jsonl_path", [](ExperimentConfig& c) { c.trace.jsonl_path = "t.jsonl"; }},
      {"trace.perfetto_path", [](ExperimentConfig& c) { c.trace.perfetto_path = "t.json"; }},
      {"trace.dump_path", [](ExperimentConfig& c) { c.trace.dump_path = "d.jsonl"; }},
      {"trace.sample", [](ExperimentConfig& c) { c.trace.sample = 0.5; }},
      {"sweep_run_index", [](ExperimentConfig& c) { c.sweep_run_index = 5; }},
  };
  for (const LeafEdit& edit : inert) {
    ExperimentConfig c = DigestBase();
    edit.apply(c);
    EXPECT_EQ(DigestConfig(c), base) << edit.leaf << " must stay out of the digest";
  }
}

TEST(SweepFingerprintTest, SensitiveToNameOrderSeedAndConfig) {
  const std::vector<RunSpec> runs = SampleRuns();
  const uint64_t fp = SweepFingerprint("journal", runs);
  EXPECT_EQ(fp, SweepFingerprint("journal", SampleRuns()));
  EXPECT_NE(fp, SweepFingerprint("other", runs));

  std::vector<RunSpec> fewer = runs;
  fewer.pop_back();
  EXPECT_NE(fp, SweepFingerprint("journal", fewer));

  std::vector<RunSpec> reseeded = runs;
  reseeded[0].config.seed += 1;
  EXPECT_NE(fp, SweepFingerprint("journal", reseeded));

  std::vector<RunSpec> relabeled = runs;
  relabeled[0].points[0].value = "5";
  EXPECT_NE(fp, SweepFingerprint("journal", relabeled));
}

TEST(RunJournalTest, AppendThenResumeLoadsLastRecordPerIndex) {
  const std::string path = TempPath("roundtrip");
  const uint64_t fp = 0x1234abcd5678ef01ull;
  {
    RunJournal journal;
    journal.Open(path, "journal", /*run_count=*/2, fp, /*resume=*/false, nullptr);
    ASSERT_TRUE(journal.is_open());
    RunRecord first_try = SampleRecord(0);
    first_try.status = RunStatus::kFailed;
    first_try.error = "transient";
    journal.Append(first_try);
    journal.Append(SampleRecord(1));
    RunRecord retried = SampleRecord(0);
    retried.attempts = 2;
    journal.Append(retried);  // same index again: this one must win
  }

  std::map<int, RunRecord> resumed;
  RunJournal journal;
  journal.Open(path, "journal", 2, fp, /*resume=*/true, &resumed);
  ASSERT_EQ(resumed.size(), 2u);
  EXPECT_EQ(resumed.at(0).status, RunStatus::kOk);
  EXPECT_EQ(resumed.at(0).attempts, 2);
  EXPECT_EQ(resumed.at(0).result.drops, 100u);
  EXPECT_EQ(resumed.at(1).result.drops, 101u);
  journal.Close();
  std::remove(path.c_str());
}

TEST(RunJournalTest, ToleratesTornFinalLine) {
  const std::string path = TempPath("torn");
  const uint64_t fp = 99;
  {
    RunJournal journal;
    journal.Open(path, "journal", 2, fp, false, nullptr);
    journal.Append(SampleRecord(0));
  }
  {
    // Simulate a kill -9 mid-write: half a record, no trailing newline.
    const std::string half = EncodeRunRecord(SampleRecord(1));
    std::ofstream out(path, std::ios::app);
    out << half.substr(0, half.size() / 2);
  }
  std::map<int, RunRecord> resumed;
  RunJournal journal;
  journal.Open(path, "journal", 2, fp, true, &resumed);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed.count(0), 1u);
  journal.Close();
  std::remove(path.c_str());
}

TEST(RunJournalTest, ResumeRefusesMismatchedFingerprint) {
  const std::string path = TempPath("mismatch");
  {
    RunJournal journal;
    journal.Open(path, "journal", 2, /*fingerprint=*/1, false, nullptr);
    journal.Append(SampleRecord(0));
  }
  RunJournal journal;
  std::map<int, RunRecord> resumed;
  EXPECT_THROW(journal.Open(path, "journal", 2, /*fingerprint=*/2, true, &resumed),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(RunJournalTest, SweepNameNeedingEscapesJournalsAndResumes) {
  const std::string path = TempPath("quoted");
  const std::string sweep = "fig\"11";
  {
    RunJournal journal;
    journal.Open(path, sweep, 2, /*fingerprint=*/42, false, nullptr);
    RunRecord record = SampleRecord(0);
    record.sweep = sweep;
    journal.Append(record);
  }
  {
    // The header is one well-formed JSON object naming the sweep exactly.
    std::ifstream in(path);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    json::Value parsed;
    std::string error;
    ASSERT_TRUE(json::Parse(header, &parsed, &error)) << error;
    std::string name;
    json::ReadString(parsed, "sweep", &name);
    EXPECT_EQ(name, sweep);
  }
  std::map<int, RunRecord> resumed;
  RunJournal journal;
  journal.Open(path, sweep, 2, 42, /*resume=*/true, &resumed);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed.at(0).sweep, sweep);
  journal.Close();
  std::remove(path.c_str());
}

TEST(RunJournalTest, ResumeOfMissingFileStartsFresh) {
  const std::string path = TempPath("fresh");
  std::remove(path.c_str());
  std::map<int, RunRecord> resumed;
  RunJournal journal;
  journal.Open(path, "journal", 2, /*fingerprint=*/7, /*resume=*/true, &resumed);
  EXPECT_TRUE(journal.is_open());
  EXPECT_TRUE(resumed.empty());
  journal.Close();

  // The fresh file carries a parseable header another resume accepts.
  std::map<int, RunRecord> again;
  RunJournal reopened;
  reopened.Open(path, "journal", 2, 7, true, &again);
  EXPECT_TRUE(again.empty());
  reopened.Close();
  std::remove(path.c_str());
}

TEST(RunJournalTest, WithoutResumeTruncatesExistingJournal) {
  const std::string path = TempPath("truncate");
  {
    RunJournal journal;
    journal.Open(path, "journal", 2, 5, false, nullptr);
    journal.Append(SampleRecord(0));
  }
  {
    RunJournal journal;
    journal.Open(path, "journal", 2, 5, /*resume=*/false, nullptr);
  }
  std::map<int, RunRecord> resumed;
  RunJournal journal;
  journal.Open(path, "journal", 2, 5, true, &resumed);
  EXPECT_TRUE(resumed.empty());  // the non-resume open wiped the old rows
  journal.Close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dibs
