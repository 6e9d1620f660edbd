#include "src/stats/run_stats.h"
#include "src/stats/detour_timeline.h"

#include <gtest/gtest.h>


namespace dibs {
namespace {

FlowResult MakeFlow(TrafficClass cls, uint64_t bytes, double fct_ms) {
  FlowResult r;
  r.spec.traffic_class = cls;
  r.spec.size_bytes = bytes;
  r.fct = Time::FromSeconds(fct_ms / 1000.0);
  return r;
}

// Only background flows enter the FCT tables; queries are timed whole.
TEST(RunStatsTest, SeparatesTrafficClasses) {
  RunStats stats;
  stats.OnFlow(MakeFlow(TrafficClass::kBackground, 5000, 1.0));
  stats.OnFlow(MakeFlow(TrafficClass::kQuery, 20000, 2.0));
  stats.OnFlow(MakeFlow(TrafficClass::kLongLived, 1000000, 100.0));
  EXPECT_EQ(stats.ShortBackgroundFctSummary().count, 1u);
  EXPECT_DOUBLE_EQ(stats.BackgroundFct99Ms(), 1.0);
  EXPECT_EQ(stats.QctSummary().count, 0u);
}

TEST(RunStatsTest, ShortBackgroundFilterBySize) {
  RunStats stats;
  stats.OnFlow(MakeFlow(TrafficClass::kBackground, 500, 1.0));     // below 1KB
  stats.OnFlow(MakeFlow(TrafficClass::kBackground, 5000, 2.0));    // in range
  stats.OnFlow(MakeFlow(TrafficClass::kBackground, 9000, 3.0));    // in range
  stats.OnFlow(MakeFlow(TrafficClass::kBackground, 50000, 50.0));  // above 10KB
  EXPECT_EQ(stats.ShortBackgroundFctSummary().count, 2u);
  EXPECT_NEAR(stats.ShortBackgroundFctSummary().p99, 3.0, 0.02);
  EXPECT_GT(stats.BackgroundFct99Ms(), 3.0);  // every size counts here
}

TEST(RunStatsTest, QctPercentile) {
  RunStats stats;
  for (int i = 1; i <= 100; ++i) {
    QueryResult q;
    q.qct = Time::Millis(i);
    stats.OnQuery(q);
  }
  EXPECT_NEAR(stats.QctSummary().p99, 99.0, 1.1);
  EXPECT_EQ(stats.QctSummary().count, 100u);
}

TEST(RunStatsTest, RetransmitAggregation) {
  RunStats stats;
  FlowResult r = MakeFlow(TrafficClass::kQuery, 20000, 5.0);
  r.retransmits = 3;
  r.timeouts = 1;
  stats.OnFlow(r);
  stats.OnFlow(r);
  EXPECT_EQ(stats.retransmits(), 6u);
  EXPECT_EQ(stats.timeouts(), 2u);
}

TEST(RunStatsTest, EmptyMetricsAreZero) {
  RunStats stats;
  EXPECT_EQ(stats.QctSummary().p99, 0.0);
  EXPECT_EQ(stats.ShortBackgroundFctSummary().p99, 0.0);
  EXPECT_EQ(stats.BackgroundFct99Ms(), 0.0);
}

Packet DeliveredPacket(uint16_t detours, TrafficClass cls = TrafficClass::kQuery) {
  Packet p;
  p.detour_count = detours;
  p.traffic_class = cls;
  return p;
}

// The events the Network's hooks dispatch for these inputs.
TraceEvent DetourEvent(int node, uint16_t port, const Packet& p, Time at) {
  return MakeTracePacketEvent(TraceEventType::kDetour, at, node, port, p);
}

TraceEvent DeliverEvent(int node, const Packet& p, Time at) {
  return MakeTracePacketEvent(TraceEventType::kHostDeliver, at, node, /*port=*/-1, p);
}

// Breaker transitions carry from/to in port/queue_depth.
TraceEvent GuardEvent(int node, GuardState from, GuardState to, Time at) {
  TraceEvent e;
  e.at = at;
  e.type = TraceEventType::kGuardTransition;
  e.node = node;
  e.port = static_cast<int32_t>(from);
  e.queue_depth = static_cast<int32_t>(to);
  return e;
}

TEST(RunStatsTest, CountsDetoursByClass) {
  RunStats stats;
  Packet q = DeliveredPacket(0, TrafficClass::kQuery);
  Packet b = DeliveredPacket(0, TrafficClass::kBackground);
  stats.OnEvent(DetourEvent(3, 1, q, Time::Millis(1)));
  stats.OnEvent(DetourEvent(3, 2, q, Time::Millis(1)));
  stats.OnEvent(DetourEvent(4, 1, b, Time::Millis(2)));
  EXPECT_EQ(stats.query_detours(), 2u);
}

TEST(DetourTimelineTest, TimelineBucketsPerSwitch) {
  DetourTimeline rec(Time::Micros(100));
  Packet p = DeliveredPacket(0);
  rec.OnEvent(DetourEvent(7, 0, p, Time::Micros(50)));    // bucket 0
  rec.OnEvent(DetourEvent(7, 0, p, Time::Micros(70)));    // bucket 0
  rec.OnEvent(DetourEvent(7, 0, p, Time::Micros(250)));   // bucket 2
  rec.OnEvent(DetourEvent(9, 0, p, Time::Micros(130)));   // other switch
  const auto series7 = rec.TimelineFor(7);
  ASSERT_EQ(series7.size(), 2u);
  EXPECT_EQ(series7[0].first, Time::Zero());
  EXPECT_EQ(series7[0].second, 2u);
  EXPECT_EQ(series7[1].first, Time::Micros(200));
  EXPECT_EQ(series7[1].second, 1u);
  EXPECT_EQ(rec.DetouringSwitches(), (std::vector<int>{7, 9}));
  EXPECT_TRUE(rec.TimelineFor(12).empty());
}

TEST(RunStatsTest, DeliveredFractionAndQuantiles) {
  RunStats stats;
  for (int i = 0; i < 80; ++i) {
    stats.OnEvent(DeliverEvent(0, DeliveredPacket(0), Time::Zero()));
  }
  for (int i = 0; i < 20; ++i) {
    stats.OnEvent(DeliverEvent(0, DeliveredPacket(5), Time::Zero()));
  }
  // The delivered total is Network's; RunStats keeps the detoured part.
  EXPECT_EQ(stats.delivered_with_detours(), 20u);
  // 80% of packets have detour count < 1.
  EXPECT_LE(stats.DetourCountQuantile(0.8), 1.0);
  EXPECT_GE(stats.DetourCountQuantile(0.95), 5.0);
}

TEST(RunStatsTest, CountsGuardTripsFromTransitions) {
  RunStats stats;
  // Switch 7: full cycle. Switch 9: trips and stays open.
  stats.OnEvent(GuardEvent(7, GuardState::kArmed, GuardState::kSuppressed, Time::Millis(1)));
  stats.OnEvent(GuardEvent(7, GuardState::kSuppressed, GuardState::kProbing, Time::Millis(5)));
  stats.OnEvent(GuardEvent(7, GuardState::kProbing, GuardState::kArmed, Time::Millis(7)));
  stats.OnEvent(GuardEvent(9, GuardState::kArmed, GuardState::kSuppressed, Time::Millis(2)));
  // PROBING -> SUPPRESSED re-opens but is not a fresh ARMED-edge trip.
  stats.OnEvent(GuardEvent(7, GuardState::kArmed, GuardState::kSuppressed, Time::Millis(10)));
  stats.OnEvent(GuardEvent(7, GuardState::kSuppressed, GuardState::kProbing, Time::Millis(14)));
  stats.OnEvent(GuardEvent(7, GuardState::kProbing, GuardState::kSuppressed, Time::Millis(16)));

  EXPECT_EQ(stats.guard_trips(), 3u);
  EXPECT_EQ(stats.guard_transitions(), 7u);
}

TEST(RunStatsTest, SuppressedDwellIncludesOpenStretches) {
  RunStats stats;
  stats.OnEvent(GuardEvent(7, GuardState::kArmed, GuardState::kSuppressed, Time::Millis(1)));
  stats.OnEvent(GuardEvent(7, GuardState::kSuppressed, GuardState::kProbing, Time::Millis(5)));
  stats.OnEvent(GuardEvent(9, GuardState::kArmed, GuardState::kSuppressed, Time::Millis(2)));
  // Switch 7 banked 4ms closed; switch 9 is still open at the 10ms cutoff.
  EXPECT_DOUBLE_EQ(stats.SuppressedMsUpTo(Time::Millis(10)), 4.0 + 8.0);
}

// A run without a fault plan never hears a drop.
TEST(RunStatsTest, SubscribesToDropsOnlyWithFaults) {
  const TraceKindSet drop = TraceKinds({TraceEventType::kDrop});
  EXPECT_EQ(RunStats().kinds() & drop, 0u);
  EXPECT_EQ(RunStats(/*faults=*/true).kinds() & drop, drop);
}

}  // namespace
}  // namespace dibs
