// Harness-layer tests: scheme presets encode Table 1/2 correctly, the table
// printer formats stably, and ScenarioResult fields are internally coherent.

#include <gtest/gtest.h>

#include <sstream>

#include "src/harness/config.h"
#include "src/harness/scenario.h"
#include "src/harness/table.h"

namespace dibs {
namespace {

TEST(ConfigPresetTest, DctcpPreset) {
  const ExperimentConfig c = DctcpConfig();
  EXPECT_EQ(c.net.detour_policy, "none");
  EXPECT_EQ(c.net.switch_buffer_packets, 100u);  // Table 1
  EXPECT_EQ(c.net.ecn_threshold_packets, 20u);   // §5.3 marking threshold
  EXPECT_EQ(c.tcp.init_cwnd_segments, 10u);      // Table 1
  EXPECT_EQ(c.tcp.min_rto, Time::Millis(10));    // Table 1
  EXPECT_EQ(c.tcp.dupack_threshold, 3u);         // fast retransmit on
  EXPECT_EQ(c.transport, TransportKind::kDctcp);
  EXPECT_EQ(c.fat_tree_k, 8);                    // 128 hosts
  EXPECT_EQ(c.qps, 300);                         // Table 2 bold defaults
  EXPECT_EQ(c.incast_degree, 40);
  EXPECT_EQ(c.response_bytes, 20000u);
  EXPECT_EQ(c.bg_interarrival, Time::Millis(120));
}

TEST(ConfigPresetTest, DibsPreset) {
  const ExperimentConfig c = DibsConfig();
  EXPECT_EQ(c.net.detour_policy, "random");
  EXPECT_EQ(c.tcp.dupack_threshold, 0u);  // §4: fast retransmit disabled
  EXPECT_EQ(c.net.initial_ttl, 255);
}

TEST(ConfigPresetTest, DibsGuardPreset) {
  const ExperimentConfig c = DibsGuardConfig();
  EXPECT_EQ(c.net.detour_policy, "random");  // still DIBS underneath
  EXPECT_TRUE(c.net.guard.enabled);
  EXPECT_TRUE(c.net.guard.adaptive_ttl);
  EXPECT_TRUE(c.net.guard.watchdog);
}

TEST(ConfigPresetTest, InfiniteBufferPreset) {
  const ExperimentConfig c = InfiniteBufferConfig();
  EXPECT_EQ(c.net.switch_buffer_packets, 0u);
  EXPECT_EQ(c.net.detour_policy, "none");
}

TEST(ConfigPresetTest, PfabricPreset) {
  const ExperimentConfig c = PfabricExperimentConfig();
  EXPECT_TRUE(c.net.pfabric_queues);
  EXPECT_EQ(c.net.pfabric_buffer_packets, 24u);  // §5.8
  EXPECT_EQ(c.transport, TransportKind::kPfabric);
  static_assert(kPfabricRto == Time::Micros(350));  // §5.8 for 1Gbps
}

TEST(TablePrinterTest, NumFormatting) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(3.0, 0), "3");
  EXPECT_EQ(TablePrinter::Num(-1.5, 1), "-1.5");
  EXPECT_EQ(TablePrinter::Int(42), "42");
}

TEST(TablePrinterTest, RowsAlignToHeaders) {
  TablePrinter t({"a", "long_header", "b"});
  std::ostringstream os;
  t.PrintHeader(os);
  t.PrintRow({"1", "2", "3"}, os);
  std::istringstream is(os.str());
  std::string header;
  std::string sep;
  std::string row;
  std::getline(is, header);
  std::getline(is, sep);
  std::getline(is, row);
  EXPECT_EQ(header.size(), row.size());
  EXPECT_EQ(sep.size(), header.size());
}

TEST(TablePrinterTest, ExplicitWidthsRespected) {
  TablePrinter t({"x"}, {20});
  std::ostringstream os;
  t.PrintRow({"v"}, os);
  EXPECT_EQ(os.str().size(), 21u);  // 20 + newline
}

TEST(TablePrinterTest, CellsAsWideAsTheirColumnStaySeparated) {
  TablePrinter t({"topo", "policy"}, {12, 8});
  std::ostringstream os;
  t.PrintRow({"fat-tree-k8", "load-aware"}, os);  // the second fills past its 8
  t.PrintRow({"fat-tree-k8", "12345678"}, os);    // exactly as wide as its column
  t.PrintRow({"0.00", "none"}, os);                // narrower: padding alone
  t.PrintRow({"first-cell-wider-than-12", "x"}, os);  // a first cell needs no space
  EXPECT_EQ(os.str(),
            " fat-tree-k8 load-aware\n"
            " fat-tree-k8 12345678\n"
            "        0.00    none\n"
            "first-cell-wider-than-12       x\n");
}

TEST(FigureBannerTest, ContainsIdAndCaption) {
  std::ostringstream os;
  PrintFigureBanner("Figure 9", "Query rate", "params here", os);
  EXPECT_NE(os.str().find("Figure 9"), std::string::npos);
  EXPECT_NE(os.str().find("Query rate"), std::string::npos);
  EXPECT_NE(os.str().find("params here"), std::string::npos);
}

TEST(DropBreakdownTest, GuardReasonsAlwaysShownEvenAtZero) {
  // A guarded run that never tripped must be visibly distinct from an
  // unguarded run: the two guard reasons print at zero, like ttl-expired.
  const std::string s = FormatDropBreakdown(std::vector<uint64_t>(kNumDropReasons, 0));
  EXPECT_NE(s.find("ttl-expired=0"), std::string::npos) << s;
  EXPECT_NE(s.find("guard-suppressed=0"), std::string::npos) << s;
  EXPECT_NE(s.find("guard-ttl-clamped=0"), std::string::npos) << s;
  // Other zero reasons stay hidden to keep the line short.
  EXPECT_EQ(s.find("queue-overflow"), std::string::npos) << s;
  EXPECT_EQ(s.find("no-eligible-detour"), std::string::npos) << s;
}

TEST(DropBreakdownTest, NonZeroReasonsAppearInReasonOrder) {
  std::vector<uint64_t> drops(kNumDropReasons, 0);
  drops[static_cast<size_t>(DropReason::kQueueOverflow)] = 12;
  drops[static_cast<size_t>(DropReason::kNoEligibleDetour)] = 3;
  const std::string s = FormatDropBreakdown(drops);
  const size_t overflow = s.find("queue-overflow=12");
  const size_t storm = s.find("no-eligible-detour=3");
  ASSERT_NE(overflow, std::string::npos) << s;
  ASSERT_NE(storm, std::string::npos) << s;
  EXPECT_LT(overflow, storm);
}

TEST(ScenarioResultTest, FieldsAreCoherent) {
  ExperimentConfig c = DibsConfig();
  c.fat_tree_k = 4;
  c.incast_degree = 8;
  c.qps = 300;
  c.duration = Time::Millis(200);
  c.seed = 5;
  Scenario scenario(c);
  const ScenarioResult r = scenario.Run();

  EXPECT_LE(r.queries_completed, r.queries_launched);
  EXPECT_LE(r.flows_completed, r.flows_started);
  EXPECT_GT(r.events_processed, 0u);
  EXPECT_EQ(r.qct.count, r.queries_completed);
  EXPECT_GE(r.qct99_ms, r.qct.p50);
  EXPECT_GE(r.bg_fct99_all_ms, 0.0);
  EXPECT_GE(r.detoured_fraction, 0.0);
  EXPECT_LE(r.detoured_fraction, 1.0);
  if (r.detours > 0) {
    EXPECT_GE(r.query_detour_share, 0.0);
    EXPECT_LE(r.query_detour_share, 1.0);
  }
  // Flow accounting: every completed query accounts for `degree` flows.
  EXPECT_GE(r.flows_completed, r.queries_completed * 8);
}

TEST(ScenarioResultTest, QueryDetourShareIsHighUnderIncast) {
  // §5.4.1: "over 90% of detoured packets belong to query traffic".
  ExperimentConfig c = DibsConfig();
  c.duration = Time::Millis(200);
  c.seed = 3;
  const ScenarioResult r = RunScenario(c);
  ASSERT_GT(r.detours, 0u);
  // Our per-host background is heavier than the paper's, so slightly more
  // background packets ride through hot spots; the share stays dominant.
  EXPECT_GT(r.query_detour_share, 0.8);
}

TEST(ScenarioResultTest, DetouredFractionModestAtDefaults) {
  // §5.4.1: "on average, DIBS detours less than 20% of the packets".
  ExperimentConfig c = DibsConfig();
  c.duration = Time::Millis(200);
  c.seed = 3;
  const ScenarioResult r = RunScenario(c);
  EXPECT_LT(r.detoured_fraction, 0.25);
}

}  // namespace
}  // namespace dibs
