// Harness-level smoke tests: every scheme preset runs a miniature version of
// the paper's default workload and produces sane metrics. These are the same
// code paths the figure benches use, at a fraction of the duration.

#include "src/harness/scenario.h"

#include <gtest/gtest.h>

#include "src/harness/config.h"

namespace dibs {
namespace {

ExperimentConfig Miniature(ExperimentConfig c) {
  c.fat_tree_k = 4;  // 16 hosts
  c.incast_degree = 8;
  c.qps = 200;
  c.response_bytes = 20000;
  c.bg_interarrival = Time::Millis(20);
  c.duration = Time::Millis(300);
  c.drain = Time::Millis(100);
  c.seed = 42;
  return c;
}

TEST(ScenarioTest, DctcpBaselineRuns) {
  const ScenarioResult r = RunScenario(Miniature(DctcpConfig()));
  EXPECT_GT(r.queries_completed, 20u);
  EXPECT_GT(r.qct99_ms, 0.0);
  EXPECT_EQ(r.detours, 0u);
}

TEST(ScenarioTest, DibsRuns) {
  const ScenarioResult r = RunScenario(Miniature(DibsConfig()));
  EXPECT_GT(r.queries_completed, 20u);
  EXPECT_GT(r.qct99_ms, 0.0);
}

TEST(ScenarioTest, DibsNeverDropsAtDefaultLoad) {
  const ScenarioResult r = RunScenario(Miniature(DibsConfig()));
  EXPECT_EQ(r.drops, 0u);
}

TEST(ScenarioTest, InfiniteBufferRuns) {
  const ScenarioResult r = RunScenario(Miniature(InfiniteBufferConfig()));
  EXPECT_EQ(r.drops, 0u);
  EXPECT_GT(r.queries_completed, 20u);
}

TEST(ScenarioTest, PfabricRuns) {
  const ScenarioResult r = RunScenario(Miniature(PfabricExperimentConfig()));
  EXPECT_GT(r.queries_completed, 20u);
  EXPECT_EQ(r.detours, 0u);
}

TEST(ScenarioTest, DibsBeatsDctcpUnderIncastPressure) {
  // The paper's default setting (K=8, degree 40, 20KB, 300 qps) at reduced
  // duration: DCTCP drops and eats minRTO timeouts; DIBS stays lossless and
  // shows a lower 99th-percentile QCT (Figures 8-11).
  auto paper_default = [](ExperimentConfig c) {
    c.duration = Time::Millis(300);
    c.drain = Time::Millis(150);
    c.seed = 42;
    return RunScenario(c);
  };
  const ScenarioResult dctcp = paper_default(DctcpConfig());
  const ScenarioResult dibs = paper_default(DibsConfig());
  EXPECT_GT(dctcp.drops, 0u);
  EXPECT_EQ(dibs.drops, 0u);
  EXPECT_LT(dibs.qct99_ms, dctcp.qct99_ms);
}

TEST(ScenarioTest, MonitorsPopulateWhenEnabled) {
  ExperimentConfig c = Miniature(DibsConfig());
  c.monitor_interval = Time::Millis(5);
  const ScenarioResult r = RunScenario(c);
  EXPECT_FALSE(r.hot_fractions.empty());
  EXPECT_FALSE(r.relative_hot_fractions.empty());
}

TEST(ScenarioTest, DeterministicAcrossRuns) {
  const ScenarioResult a = RunScenario(Miniature(DibsConfig()));
  const ScenarioResult b = RunScenario(Miniature(DibsConfig()));
  EXPECT_EQ(a.qct99_ms, b.qct99_ms);
  EXPECT_EQ(a.detours, b.detours);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(ScenarioTest, SeedChangesOutcome) {
  ExperimentConfig c = Miniature(DibsConfig());
  const ScenarioResult a = RunScenario(c);
  c.seed = 43;
  const ScenarioResult b = RunScenario(c);
  EXPECT_NE(a.events_processed, b.events_processed);
}

TEST(ScenarioTest, OversubscriptionRuns) {
  ExperimentConfig c = Miniature(DibsConfig());
  c.oversubscription = 4.0;
  const ScenarioResult r = RunScenario(c);
  EXPECT_GT(r.queries_completed, 10u);
}

TEST(ScenarioTest, SharedBufferModeRuns) {
  ExperimentConfig c = Miniature(DibsConfig());
  c.net.use_shared_buffer = true;
  c.net.shared_buffer_packets = 300;
  const ScenarioResult r = RunScenario(c);
  EXPECT_GT(r.queries_completed, 10u);
}

TEST(ScenarioTest, TtlLimitCausesTtlDropsUnderStress) {
  ExperimentConfig c = Miniature(DibsConfig());
  c.net.initial_ttl = 12;
  c.net.switch_buffer_packets = 10;  // force heavy detouring
  c.incast_degree = 12;
  const ScenarioResult r = RunScenario(c);
  // With TTL 12 and 10-packet buffers, some packets run out of detours.
  EXPECT_GT(r.ttl_drops, 0u);
}

TEST(ScenarioTest, EmulabTopologyScenario) {
  ExperimentConfig c = DibsConfig();
  c.topology = TopologyKind::kEmulabTestbed;
  c.enable_background = false;
  c.qps = 100;
  c.incast_degree = 4;
  c.duration = Time::Millis(200);
  c.seed = 7;
  const ScenarioResult r = RunScenario(c);
  EXPECT_GT(r.queries_completed, 5u);
}

}  // namespace
}  // namespace dibs
