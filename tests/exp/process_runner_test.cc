// Process-isolation contract (IsolationMode::kProcess): forked runs produce
// byte-identical records to in-process runs, an injected crash is contained
// as a `crashed` record (with the fatal signal) while the rest of the sweep
// completes, a hang past run_timeout_sec + grace is SIGKILLed by the hard
// watchdog, and retries re-run crashed rows (recovering when the cause was
// transient, ending `crashed` when it was not).
//
// Every test forks from a single-threaded state: the process-mode
// orchestrator runs on the calling thread, and thread pools from other
// tests in this binary are joined before these run.

#include "src/exp/process_runner.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

#include "src/exp/record_codec.h"
#include "src/exp/sweep_engine.h"
#include "src/exp/sweep_spec.h"
#include "src/harness/config.h"

namespace dibs {
namespace {

ExperimentConfig Tiny(ExperimentConfig c) {
  c.fat_tree_k = 4;
  c.incast_degree = 8;
  c.qps = 400;
  c.response_bytes = 4000;
  c.bg_interarrival = Time::Millis(40);
  c.duration = Time::Millis(60);
  c.drain = Time::Millis(40);
  c.seed = 7;
  return c;
}

SweepSpec TinySchemeSweep() {
  SweepSpec spec;
  spec.name = "isolate";
  spec.base = Tiny(DctcpConfig());
  SweepAxis scheme;
  scheme.name = "scheme";
  scheme.values.push_back({"dctcp", [](ExperimentConfig& c) { c = Tiny(DctcpConfig()); }});
  scheme.values.push_back({"dibs", [](ExperimentConfig& c) { c = Tiny(DibsConfig()); }});
  spec.axes.push_back(std::move(scheme));
  spec.seed = 11;
  return spec;
}

// The two host-side fields that legitimately differ between executions.
std::string NormalizeWallFields(std::string line) {
  static const std::regex kWall(
      "\"wall_ms\":[^,]+,\"events_per_sec\":[^,]+,");
  return std::regex_replace(line, kWall, "\"wall_ms\":0,\"events_per_sec\":0,");
}

// Crash exactly as the Scenario test hook does: restore the default SIGSEGV
// disposition first so sanitizer handlers don't turn the signal into a
// report, then raise it.
[[noreturn]] void CrashHard() {
  ::signal(SIGSEGV, SIG_DFL);
  ::raise(SIGSEGV);
  ::_exit(111);  // unreachable
}

TEST(ProcessRunnerTest, ProcessModeMatchesThreadModeByteForByte) {
  SweepOptions thread_opts;
  thread_opts.jobs = 1;
  thread_opts.progress = false;
  thread_opts.isolate = IsolationMode::kThread;
  SweepOptions process_opts;
  process_opts.jobs = 2;
  process_opts.progress = false;
  process_opts.isolate = IsolationMode::kProcess;

  const std::vector<RunRecord> in_process =
      SweepEngine(thread_opts).Run(TinySchemeSweep());
  const std::vector<RunRecord> forked =
      SweepEngine(process_opts).Run(TinySchemeSweep());
  ASSERT_EQ(in_process.size(), forked.size());
  for (size_t i = 0; i < in_process.size(); ++i) {
    EXPECT_EQ(forked[i].status, RunStatus::kOk);
    EXPECT_EQ(NormalizeWallFields(EncodeRunRecord(forked[i])),
              NormalizeWallFields(EncodeRunRecord(in_process[i])));
  }
}

TEST(ProcessRunnerTest, CrashedChildIsContainedAndRestComplete) {
  std::vector<RunSpec> runs(4);
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i == 1) {
      runs[i].runner = [](const ExperimentConfig&) -> ScenarioResult { CrashHard(); };
    } else if (i == 2) {
      runs[i].runner = [](const ExperimentConfig&) -> ScenarioResult { ::_exit(3); };
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
  opts.isolate = IsolationMode::kProcess;
  SweepEngine engine(opts);
  const std::vector<RunRecord> records = engine.RunAll("crash", std::move(runs));
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[1].status, RunStatus::kCrashed);
  EXPECT_NE(records[1].error.find("SIGSEGV"), std::string::npos) << records[1].error;
  EXPECT_EQ(records[2].status, RunStatus::kCrashed);
  EXPECT_NE(records[2].error.find("exited with code 3"), std::string::npos)
      << records[2].error;
  for (size_t i : {0u, 3u}) {
    EXPECT_EQ(records[i].status, RunStatus::kOk);
    EXPECT_EQ(records[i].result.queries_completed, 5u);
  }
  EXPECT_EQ(engine.summary().crashed, 2u);
  EXPECT_EQ(engine.summary().ok, 2u);
}

TEST(ProcessRunnerTest, HardWatchdogKillsHungChild) {
  std::vector<RunSpec> runs(2);
  // Hangs OUTSIDE the simulator loop, where the cooperative deadline can
  // never fire — exactly the gap the watchdog exists for.
  runs[0].runner = [](const ExperimentConfig&) -> ScenarioResult {
    while (true) {
      ::sleep(1);
    }
  };
  runs[1].runner = [](const ExperimentConfig&) { return ScenarioResult{}; };
  SweepOptions opts;
  opts.jobs = 2;
  opts.progress = false;
  opts.isolate = IsolationMode::kProcess;
  opts.run_timeout_sec = 0.2;
  opts.watchdog_grace_sec = 0.2;
  SweepEngine engine(opts);
  const std::vector<RunRecord> records = engine.RunAll("hang", std::move(runs));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, RunStatus::kTimeout);
  EXPECT_NE(records[0].error.find("hard watchdog"), std::string::npos)
      << records[0].error;
  EXPECT_EQ(records[1].status, RunStatus::kOk);
  EXPECT_EQ(engine.summary().timeout, 1u);
}

TEST(ProcessRunnerTest, CrashHookTargetsOneScenarioRun) {
  setenv("DIBS_TEST_CRASH_RUN", "1", /*overwrite=*/1);
  SweepOptions opts;
  opts.jobs = 1;
  opts.progress = false;
  opts.isolate = IsolationMode::kProcess;
  SweepEngine engine(opts);
  const std::vector<RunRecord> records = engine.Run(TinySchemeSweep());
  unsetenv("DIBS_TEST_CRASH_RUN");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, RunStatus::kOk);
  EXPECT_EQ(records[1].status, RunStatus::kCrashed);
  EXPECT_NE(records[1].error.find("SIGSEGV"), std::string::npos) << records[1].error;
}

TEST(ProcessRunnerTest, TransientCrashRecoversOnRetry) {
  // Cross-process "transient fault" side channel: the first attempt's child
  // leaves a marker file and crashes; the retry sees the marker and succeeds.
  const std::string marker = ::testing::TempDir() + "dibs_retry_marker_" +
                             std::to_string(::getpid());
  std::remove(marker.c_str());
  std::vector<RunSpec> runs(1);
  runs[0].runner = [marker](const ExperimentConfig&) -> ScenarioResult {
    struct stat st;
    if (::stat(marker.c_str(), &st) != 0) {
      std::ofstream(marker) << "attempt 1\n";
      CrashHard();
    }
    ScenarioResult r;
    r.queries_completed = 9;
    return r;
  };
  SweepOptions opts;
  opts.jobs = 1;
  opts.progress = false;
  opts.isolate = IsolationMode::kProcess;
  opts.retry.max_attempts = 2;
  SweepEngine engine(opts);
  const std::vector<RunRecord> records = engine.RunAll("flaky", std::move(runs));
  std::remove(marker.c_str());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, RunStatus::kOk);
  EXPECT_EQ(records[0].attempts, 2);
  EXPECT_EQ(records[0].result.queries_completed, 9u);
  EXPECT_EQ(engine.summary().retried, 1u);
  EXPECT_EQ(engine.summary().ok, 1u);
}

TEST(ProcessRunnerTest, PersistentCrashExhaustsRetries) {
  std::vector<RunSpec> runs(1);
  runs[0].runner = [](const ExperimentConfig&) -> ScenarioResult { CrashHard(); };
  SweepOptions opts;
  opts.jobs = 1;
  opts.progress = false;
  opts.isolate = IsolationMode::kProcess;
  opts.retry.max_attempts = 2;
  SweepEngine engine(opts);
  const std::vector<RunRecord> records = engine.RunAll("doomed", std::move(runs));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, RunStatus::kCrashed);
  EXPECT_EQ(records[0].attempts, 2);
  EXPECT_NE(records[0].error.find("child killed by signal"), std::string::npos)
      << records[0].error;
  EXPECT_EQ(engine.summary().crashed, 1u);
  EXPECT_EQ(engine.summary().retried, 1u);
}

}  // namespace
}  // namespace dibs
