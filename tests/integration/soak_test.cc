// Soak test: a longer mixed run (all three traffic classes, DIBS network)
// followed by global invariant checks. Catches slow state corruption —
// stuck transmitters, leaked pause state, flows that never finish, and
// accounting drift — that short behavioral tests miss.

#include <gtest/gtest.h>

#include "src/harness/scenario.h"
#include "src/workload/long_lived.h"
#include "tests/transport/transport_test_util.h"

namespace dibs {
namespace {

TEST(SoakTest, MixedTrafficInvariantsHold) {
  ExperimentConfig cfg = DibsConfig();
  cfg.fat_tree_k = 4;  // 16 hosts keeps the soak fast
  cfg.incast_degree = 8;
  cfg.qps = 500;
  cfg.bg_interarrival = Time::Millis(60);
  cfg.duration = Time::Seconds(2);
  cfg.drain = Time::Millis(400);
  cfg.seed = 77;
  Scenario scenario(cfg);
  const ScenarioResult r = scenario.Run();

  // Sustained progress: ~1000 queries expected at 500 qps over 2s.
  EXPECT_GT(r.queries_completed, 800u);
  // DIBS keeps the run lossless at this load.
  EXPECT_EQ(r.drops, 0u);
  // Every query that completed implies degree flows completed.
  EXPECT_GE(r.flows_completed, r.queries_completed * 8);

  // After the drain, no switch should still be buffering a meaningful
  // backlog, and nothing should be paused (PFC is off; paused == bug).
  Network& net = scenario.network();
  size_t residual = 0;
  for (int sw : net.switch_ids()) {
    residual += net.switch_at(sw).buffered_packets();
    for (uint16_t i = 0; i < net.switch_at(sw).num_ports(); ++i) {
      EXPECT_FALSE(net.switch_at(sw).port(i).paused());
    }
  }
  EXPECT_LT(residual, 50u);
}

TEST(SoakTest, AllThreeTrafficClassesCoexist) {
  NetworkConfig net_cfg;
  net_cfg.detour_policy = "random";
  TransportHarness h(BuildPaperFatTree(), net_cfg, TransportKind::kDctcp,
                     TcpConfig::DibsDefault(), /*seed=*/13);

  // Long-lived pairs on the first 8 hosts.
  LongLivedWorkload::Options ll_opts;
  ll_opts.flows_per_pair = 1;
  // Fairness workload wants its own FlowManager hooks; reuse h's.
  LongLivedWorkload ll(&h.net(), &h.flows(), ll_opts);
  ll.Start();

  // A burst of queries and a sprinkle of short flows on top.
  for (HostId src = 16; src < 40; ++src) {
    h.StartFlow(src, 15, 20000, TrafficClass::kQuery);
  }
  for (HostId src = 40; src < 50; ++src) {
    h.StartFlow(src, static_cast<HostId>(src + 50), 5000, TrafficClass::kBackground);
  }
  h.RunUntil(Time::Millis(300));

  // Queries + background complete despite the long-lived load.
  EXPECT_EQ(h.results().size(), 24u + 10u);
  // Long-lived flows made real progress and stayed fair.
  EXPECT_GT(ll.FairnessIndex(), 0.85);
  for (double goodput : ll.MeasureGoodputBps()) {
    EXPECT_GT(goodput, 0.0);
  }
}

TEST(SoakTest, RepeatedScenariosDoNotInterfere) {
  // Back-to-back scenarios must be bit-identical: no global state leaks
  // across Simulator/Network instances.
  ExperimentConfig cfg = DibsConfig();
  cfg.fat_tree_k = 4;
  cfg.incast_degree = 8;
  cfg.duration = Time::Millis(150);
  cfg.seed = 21;
  const ScenarioResult first = RunScenario(cfg);
  for (int i = 0; i < 3; ++i) {
    const ScenarioResult again = RunScenario(cfg);
    EXPECT_EQ(again.events_processed, first.events_processed);
    EXPECT_EQ(again.detours, first.detours);
    EXPECT_EQ(again.qct99_ms, first.qct99_ms);
  }
}

}  // namespace
}  // namespace dibs
