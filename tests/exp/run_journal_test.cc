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
  // Toggling the guard (or tuning any of its thresholds) changes forwarding
  // decisions or recorded columns, so it must invalidate journal resume.
  const ExperimentConfig base = DibsConfig();
  ExperimentConfig guarded = base;
  guarded.net.guard.enabled = true;
  EXPECT_NE(DigestConfig(guarded), DigestConfig(base));

  ExperimentConfig trip = guarded;
  trip.net.guard.trip_detour_rate = 0.3;
  EXPECT_NE(DigestConfig(trip), DigestConfig(guarded));

  ExperimentConfig hold = guarded;
  hold.net.guard.suppress_hold = Time::Millis(8);
  EXPECT_NE(DigestConfig(hold), DigestConfig(guarded));

  ExperimentConfig adaptive = guarded;
  adaptive.net.guard.adaptive_ttl = true;
  EXPECT_NE(DigestConfig(adaptive), DigestConfig(guarded));

  ExperimentConfig budget = adaptive;
  budget.net.guard.ttl_budget_min = 4;
  EXPECT_NE(DigestConfig(budget), DigestConfig(adaptive));

  ExperimentConfig watchdog = guarded;
  watchdog.net.guard.watchdog = true;
  EXPECT_NE(DigestConfig(watchdog), DigestConfig(guarded));

  ExperimentConfig window = watchdog;
  window.net.guard.collapse_window = Time::Millis(20);
  EXPECT_NE(DigestConfig(window), DigestConfig(watchdog));
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
