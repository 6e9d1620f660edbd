// Sweep engine contract tests: expansion order and derived seeds, result
// determinism under parallelism (the acceptance bar for converting the
// figure benches), ordered sink delivery, the failure-isolation paths
// (exception capture, event budget, wall-clock deadline), immediate retry,
// and journal-backed resume (byte-identical sink output across a
// kill/resume boundary at any job count).

#include "src/exp/sweep_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/exp/result_sink.h"
#include "src/exp/sweep_spec.h"
#include "src/harness/config.h"

namespace dibs {
namespace {

// Small enough for many runs per test, big enough to exercise the full
// scenario path (fat-tree, incast queries, background flows).
ExperimentConfig Tiny(ExperimentConfig c) {
  c.fat_tree_k = 4;  // 16 hosts
  c.incast_degree = 8;
  c.qps = 400;
  c.response_bytes = 4000;
  c.bg_interarrival = Time::Millis(40);
  c.duration = Time::Millis(60);
  c.drain = Time::Millis(40);
  c.seed = 7;
  return c;
}

SweepSpec TinySweep() {
  SweepSpec spec;
  spec.name = "test";
  spec.base = Tiny(DctcpConfig());
  SweepAxis scheme;
  scheme.name = "scheme";
  scheme.values.push_back({"dctcp", [](ExperimentConfig& c) { c = Tiny(DctcpConfig()); }});
  scheme.values.push_back({"dibs", [](ExperimentConfig& c) { c = Tiny(DibsConfig()); }});
  spec.axes.push_back(std::move(scheme));
  spec.axes.push_back(SweepAxis::Of<int>(
      "degree", {4, 8}, [](ExperimentConfig& c, int d) { c.incast_degree = d; }));
  spec.seed = 11;
  return spec;
}

void ExpectSameResult(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_DOUBLE_EQ(a.qct99_ms, b.qct99_ms);
  EXPECT_DOUBLE_EQ(a.bg_fct99_ms, b.bg_fct99_ms);
  EXPECT_DOUBLE_EQ(a.detoured_fraction, b.detoured_fraction);
  EXPECT_DOUBLE_EQ(a.detour_count_p99, b.detour_count_p99);
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.detours, b.detours);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(SweepSpecTest, ExpandOrderCoordinatesAndSeeds) {
  SweepSpec spec = TinySweep();
  spec.replications = 2;
  const std::vector<RunSpec> runs = spec.Expand();
  ASSERT_EQ(runs.size(), 2u * 2u * 2u);
  EXPECT_EQ(spec.RunCount(), runs.size());

  // First axis slowest, replication fastest.
  EXPECT_EQ(runs[0].points,
            (std::vector<AxisPoint>{{"scheme", "dctcp"}, {"degree", "4"}}));
  EXPECT_EQ(runs[0].replication, 0);
  EXPECT_EQ(runs[1].points, runs[0].points);
  EXPECT_EQ(runs[1].replication, 1);
  EXPECT_EQ(runs[2].points,
            (std::vector<AxisPoint>{{"scheme", "dctcp"}, {"degree", "8"}}));
  EXPECT_EQ(runs[7].points,
            (std::vector<AxisPoint>{{"scheme", "dibs"}, {"degree", "8"}}));

  for (const RunSpec& run : runs) {
    EXPECT_EQ(run.index, &run - runs.data());
    // Replication seeds derive from the spec seed even though the scheme
    // axis replaced the whole config (which carried its own seed).
    EXPECT_EQ(run.config.seed, spec.seed + static_cast<uint64_t>(run.replication));
  }
  EXPECT_EQ(runs[2].config.incast_degree, 8);
}

TEST(SweepEngineTest, ParallelRunsMatchSerialRuns) {
  SweepOptions serial;
  serial.jobs = 1;
  serial.progress = false;
  SweepOptions parallel;
  parallel.jobs = 4;
  parallel.progress = false;

  const std::vector<RunRecord> a = SweepEngine(serial).Run(TinySweep());
  const std::vector<RunRecord> b = SweepEngine(parallel).Run(TinySweep());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, static_cast<int>(i));
    EXPECT_EQ(b[i].index, static_cast<int>(i));
    EXPECT_EQ(a[i].points, b[i].points);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].status, RunStatus::kOk);
    EXPECT_EQ(b[i].status, RunStatus::kOk);
    ExpectSameResult(a[i].result, b[i].result);
  }
}

TEST(SweepEngineTest, SinkSeesRecordsInMatrixOrderUnderParallelism) {
  // Stub runners with inverted sleep times force out-of-order completion;
  // the sink must still observe index order.
  std::vector<RunSpec> runs(8);
  for (size_t i = 0; i < runs.size(); ++i) {
    const int sleep_ms = static_cast<int>((runs.size() - i) * 3);
    runs[i].runner = [sleep_ms](const ExperimentConfig&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      return ScenarioResult{};
    };
  }
  SweepOptions opts;
  opts.jobs = 4;
  opts.progress = false;
  MemorySink sink;
  SweepEngine(opts).RunAll("order", std::move(runs), &sink);
  ASSERT_EQ(sink.records().size(), 8u);
  for (size_t i = 0; i < sink.records().size(); ++i) {
    EXPECT_EQ(sink.records()[i].index, static_cast<int>(i));
  }
}

TEST(SweepEngineTest, ExceptionMarksRowFailedWithoutKillingSweep) {
  std::vector<RunSpec> runs(4);
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i == 1) {
      runs[i].runner = [](const ExperimentConfig&) -> ScenarioResult {
        throw std::runtime_error("diverged");
      };
    } else {
      runs[i].runner = [](const ExperimentConfig&) {
        ScenarioResult r;
        r.queries_completed = 5;
        return r;
      };
    }
  }
  SweepOptions opts;
  opts.jobs = 2;
  opts.progress = false;
  const std::vector<RunRecord> records = SweepEngine(opts).RunAll("fail", std::move(runs));
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[1].status, RunStatus::kFailed);
  EXPECT_EQ(records[1].error, "diverged");
  for (size_t i : {0u, 2u, 3u}) {
    EXPECT_EQ(records[i].status, RunStatus::kOk);
    EXPECT_EQ(records[i].result.queries_completed, 5u);
  }
}

TEST(SweepEngineTest, EventBudgetMarksRowTimeout) {
  SweepSpec spec;
  spec.name = "budget";
  spec.base = Tiny(DibsConfig());
  SweepOptions opts;
  opts.jobs = 1;
  opts.progress = false;
  opts.event_budget = 2000;
  const std::vector<RunRecord> records = SweepEngine(opts).Run(spec);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, RunStatus::kTimeout);
  EXPECT_FALSE(records[0].error.empty());
  // The run stopped at the budget, far short of a full run (~100k+ events).
  EXPECT_LE(records[0].result.events_processed, opts.event_budget + 1);
}

TEST(SweepEngineTest, WallClockDeadlineMarksRowTimeout) {
  SweepSpec spec;
  spec.name = "deadline";
  spec.base = Tiny(DibsConfig());
  SweepOptions opts;
  opts.jobs = 1;
  opts.progress = false;
  opts.run_timeout_sec = 1e-9;  // expires before the first deadline check
  const std::vector<RunRecord> records = SweepEngine(opts).Run(spec);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, RunStatus::kTimeout);
}

TEST(SweepEngineTest, RetryRecoversTransientFailuresWithSeedPreserved) {
  auto failures_left = std::make_shared<std::atomic<int>>(2);
  std::vector<RunSpec> runs(1);
  runs[0].config.seed = 99;
  runs[0].runner = [failures_left](const ExperimentConfig& c) -> ScenarioResult {
    EXPECT_EQ(c.seed, 99u);  // retries re-run the same spec, same seed
    if (failures_left->fetch_add(-1) > 0) {
      throw std::runtime_error("transient");
    }
    ScenarioResult r;
    r.queries_completed = 9;
    return r;
  };
  SweepOptions opts;
  opts.jobs = 1;
  opts.progress = false;
  opts.retry.max_attempts = 3;
  SweepEngine engine(opts);
  const std::vector<RunRecord> records = engine.RunAll("flaky", std::move(runs));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, RunStatus::kOk);
  EXPECT_EQ(records[0].attempts, 3);
  EXPECT_EQ(records[0].result.queries_completed, 9u);
  EXPECT_EQ(engine.summary().retried, 1u);
  EXPECT_EQ(engine.summary().ok, 1u);
}

TEST(SweepEngineTest, ExhaustedRetriesKeepTheLastStatus) {
  std::vector<RunSpec> runs(2);
  runs[0].runner = [](const ExperimentConfig&) -> ScenarioResult {
    throw std::runtime_error("deterministic bug");
  };
  runs[1].runner = [](const ExperimentConfig&) { return ScenarioResult{}; };
  SweepOptions opts;
  opts.jobs = 2;
  opts.progress = false;
  opts.retry.max_attempts = 2;
  SweepEngine engine(opts);
  const std::vector<RunRecord> records = engine.RunAll("doomed", std::move(runs));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, RunStatus::kFailed);
  EXPECT_EQ(records[0].attempts, 2);
  EXPECT_EQ(records[0].error, "deterministic bug");
  EXPECT_EQ(records[1].status, RunStatus::kOk);
  EXPECT_EQ(records[1].attempts, 1);
  EXPECT_EQ(engine.summary().failed, 1u);
  EXPECT_EQ(engine.summary().retried, 1u);
}

// --- Journal-backed resume ---

std::string JournalPath(const std::string& stem) {
  return ::testing::TempDir() + "dibs_engine_" + stem + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

struct SweepCapture {
  std::vector<RunRecord> records;
  SweepSummary summary;
  std::string jsonl;
  std::string csv;
};

SweepCapture RunJournaled(const SweepSpec& spec, const std::string& journal,
                          int jobs, bool resume) {
  std::ostringstream jsonl_os;
  std::ostringstream csv_os;
  JsonlSink jsonl(jsonl_os);
  CsvSink csv(csv_os);
  MultiSink multi({&jsonl, &csv});
  SweepOptions opts;
  opts.jobs = jobs;
  opts.progress = false;
  opts.journal_path = journal;
  opts.resume = resume;
  SweepEngine engine(opts);
  SweepCapture cap;
  cap.records = engine.Run(spec, &multi);
  cap.summary = engine.summary();
  cap.jsonl = jsonl_os.str();
  cap.csv = csv_os.str();
  return cap;
}

// Leaves the journal exactly as a kill -9 after `keep` finished runs would:
// the header plus the first `keep` complete record lines.
void TruncateJournal(const std::string& path, size_t keep) {
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  in.close();
  ASSERT_GT(lines.size(), keep + 1);
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i < keep + 1; ++i) {
    out << lines[i] << "\n";
  }
}

// Zeroes the two host-side fields (wall_ms, events_per_sec) that
// legitimately differ between executions of the same run.
std::string NormalizeJsonl(const std::string& text) {
  static const std::regex kWall("\"wall_ms\":[^,]+,\"events_per_sec\":[^,]+,");
  return std::regex_replace(text, kWall, "\"wall_ms\":0,\"events_per_sec\":0,");
}

std::string NormalizeCsv(const std::string& text) {
  // Columns 8 and 9 are wall_ms and events_per_sec; every row in these
  // tests is `ok` with an empty error, so no field contains a quoted comma.
  std::istringstream in(text);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    std::vector<std::string> fields;
    std::string field;
    std::istringstream row(line);
    while (std::getline(row, field, ',')) {
      fields.push_back(field);
    }
    if (fields.size() > 9) {
      fields[8] = "0";
      fields[9] = "0";
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      out += (i == 0 ? "" : ",") + fields[i];
    }
    out += "\n";
  }
  return out;
}

TEST(SweepEngineTest, ResumeReproducesByteIdenticalSinkOutput) {
  for (int jobs : {1, 8}) {
    const std::string journal = JournalPath("resume_j" + std::to_string(jobs));
    std::remove(journal.c_str());

    const SweepCapture full = RunJournaled(TinySweep(), journal, jobs, /*resume=*/false);
    ASSERT_EQ(full.summary.ok, 4u) << "jobs=" << jobs;

    // Keep the header and the first two completed rows — what a kill -9
    // leaves behind (the journal flushes per record).
    TruncateJournal(journal, /*keep=*/2);

    const SweepCapture resumed =
        RunJournaled(TinySweep(), journal, jobs, /*resume=*/true);
    EXPECT_EQ(resumed.summary.resumed, 2u) << "jobs=" << jobs;
    EXPECT_EQ(resumed.summary.ok, 4u) << "jobs=" << jobs;
    EXPECT_TRUE(resumed.summary.AllOk());

    EXPECT_EQ(NormalizeJsonl(resumed.jsonl), NormalizeJsonl(full.jsonl))
        << "jobs=" << jobs;
    EXPECT_EQ(NormalizeCsv(resumed.csv), NormalizeCsv(full.csv)) << "jobs=" << jobs;
    std::remove(journal.c_str());
  }
}

// Guarded variant of the resume contract: breaker state is rebuilt from
// scratch on replayed rows, so a kill -9 mid-sweep must still reproduce the
// guard columns (trips, suppressed drops, dwell) byte-for-byte.
TEST(SweepEngineTest, GuardedSweepResumeIsByteIdentical) {
  SweepSpec spec;
  spec.name = "guard-resume";
  spec.base = Tiny(DibsGuardConfig());
  // Shallow buffers and 1000 qps of 20 KB responses: at degree 15 (every
  // other host) the detour storm trips the breaker's fixed thresholds
  // within the 40 ms run.
  spec.base.qps = 1000;
  spec.base.response_bytes = 20000;
  spec.base.net.switch_buffer_packets = 10;
  spec.base.duration = Time::Millis(40);
  spec.base.drain = Time::Millis(10);
  spec.axes.push_back(SweepAxis::Of<int>(
      "degree", {4, 8, 12, 15}, [](ExperimentConfig& c, int d) { c.incast_degree = d; }));
  spec.seed = 11;

  for (int jobs : {1, 8}) {
    const std::string journal = JournalPath("guard_resume_j" + std::to_string(jobs));
    std::remove(journal.c_str());
    const SweepCapture full = RunJournaled(spec, journal, jobs, /*resume=*/false);
    ASSERT_EQ(full.summary.ok, 4u) << "jobs=" << jobs;
    // A sweep that never trips would vacuously pass — demand the storm.
    uint64_t total_trips = 0;
    for (const RunRecord& r : full.records) {
      total_trips += r.result.guard_trips;
    }
    ASSERT_GT(total_trips, 0u) << "jobs=" << jobs;

    TruncateJournal(journal, /*keep=*/2);
    const SweepCapture resumed = RunJournaled(spec, journal, jobs, /*resume=*/true);
    EXPECT_EQ(resumed.summary.resumed, 2u) << "jobs=" << jobs;
    EXPECT_EQ(NormalizeJsonl(resumed.jsonl), NormalizeJsonl(full.jsonl))
        << "jobs=" << jobs;
    EXPECT_EQ(NormalizeCsv(resumed.csv), NormalizeCsv(full.csv)) << "jobs=" << jobs;
    for (size_t i = 0; i < full.records.size(); ++i) {
      EXPECT_EQ(resumed.records[i].result.guard_trips, full.records[i].result.guard_trips);
      EXPECT_EQ(resumed.records[i].result.guard_suppressed_drops,
                full.records[i].result.guard_suppressed_drops);
      EXPECT_DOUBLE_EQ(resumed.records[i].result.guard_time_suppressed_ms,
                       full.records[i].result.guard_time_suppressed_ms);
    }
    std::remove(journal.c_str());
  }
}

TEST(SweepEngineTest, ResumedRowsReplayExactDoublesFromTheJournal) {
  // Beyond normalized-equality: the replayed rows' result fields round-trip
  // through the journal bit-exactly.
  const std::string journal = JournalPath("replay");
  std::remove(journal.c_str());
  const SweepCapture full = RunJournaled(TinySweep(), journal, /*jobs=*/1, false);
  TruncateJournal(journal, 2);
  const SweepCapture resumed = RunJournaled(TinySweep(), journal, 1, true);
  ASSERT_EQ(resumed.records.size(), full.records.size());
  for (size_t i = 0; i < full.records.size(); ++i) {
    ExpectSameResult(resumed.records[i].result, full.records[i].result);
  }
  std::remove(journal.c_str());
}

TEST(SweepEngineTest, ResumeRefusesJournalFromDifferentSweep) {
  const std::string journal = JournalPath("mismatch");
  std::remove(journal.c_str());
  RunJournaled(TinySweep(), journal, 1, false);

  SweepSpec other = TinySweep();
  other.seed = 12;  // different seeds -> different fingerprint
  SweepOptions opts;
  opts.jobs = 1;
  opts.progress = false;
  opts.journal_path = journal;
  opts.resume = true;
  EXPECT_THROW(SweepEngine(opts).Run(other), std::runtime_error);
  std::remove(journal.c_str());
}

TEST(SweepEngineTest, ResolveJobsPrefersExplicitThenHardware) {
  EXPECT_EQ(SweepEngine::ResolveJobs(5), 5);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(SweepEngine::ResolveJobs(0), hw > 0 ? hw : 1);
}

}  // namespace
}  // namespace dibs
