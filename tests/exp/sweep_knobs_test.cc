// The sweep knobs' one home: bench/bench_util.h reads DIBS_JOBS,
// DIBS_ISOLATE, DIBS_JOURNAL, DIBS_RESUME and DIBS_RUN_TIMEOUT_SEC into
// SweepOptions, and the engine reads none of them itself, so a caller that
// builds its own options (perfbench, the chaos oracles, tests) gets exactly
// what it asked for whatever the environment holds.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/exp/sweep_engine.h"
#include "src/util/env.h"
#include "tests/util/scoped_env.h"

namespace dibs {
namespace {

TEST(SweepKnobsTest, BenchSweepOptionsReadsEveryKnob) {
  ScopedEnv jobs("DIBS_JOBS", "3");
  ScopedEnv isolate("DIBS_ISOLATE", "process");
  ScopedEnv journal("DIBS_JOURNAL", "sweep.journal");
  ScopedEnv resume("DIBS_RESUME", "1");
  ScopedEnv timeout("DIBS_RUN_TIMEOUT_SEC", "2.5");
  const SweepOptions opts = bench::BenchSweepOptions();
  EXPECT_EQ(opts.jobs, 3);
  EXPECT_EQ(opts.isolate, IsolationMode::kProcess);
  EXPECT_EQ(opts.journal_path, "sweep.journal");
  EXPECT_TRUE(opts.resume);
  EXPECT_DOUBLE_EQ(opts.run_timeout_sec, 2.5);

  ScopedEnv typo("DIBS_ISOLATE", "proces");
  EXPECT_THROW(bench::BenchSweepOptions(), EnvError);
}

TEST(SweepKnobsTest, EngineReadsNoKnob) {
  const std::string journal =
      ::testing::TempDir() + "dibs_unread_journal_" + std::to_string(::getpid());
  std::remove(journal.c_str());
  ScopedEnv journal_env("DIBS_JOURNAL", journal.c_str());
  ScopedEnv isolate("DIBS_ISOLATE", "process");

  // Each run reports the pid it ran in: a forked child's differs from ours.
  std::vector<RunSpec> runs(2);
  for (RunSpec& run : runs) {
    run.runner = [](const ExperimentConfig&) {
      ScenarioResult r;
      r.queries_completed = static_cast<uint64_t>(::getpid());
      return r;
    };
  }
  SweepOptions opts;
  opts.progress = false;
  const std::vector<RunRecord> records = SweepEngine(opts).RunAll("knobs", std::move(runs));
  ASSERT_EQ(records.size(), 2u);
  for (const RunRecord& rec : records) {
    EXPECT_EQ(rec.status, RunStatus::kOk);
    EXPECT_EQ(rec.result.queries_completed, static_cast<uint64_t>(::getpid()))
        << "run " << rec.index << " ran in a forked child";
  }
  struct stat st;
  EXPECT_NE(::stat(journal.c_str(), &st), 0) << "the engine journaled to " << journal;
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace dibs
