#include "src/stats/detour_recorder.h"
#include "src/stats/detour_timeline.h"
#include "src/stats/flow_recorder.h"
#include "src/stats/guard_recorder.h"

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

TEST(FlowRecorderTest, SeparatesTrafficClasses) {
  FlowRecorder rec;
  rec.RecordFlow(MakeFlow(TrafficClass::kBackground, 5000, 1.0));
  rec.RecordFlow(MakeFlow(TrafficClass::kQuery, 20000, 2.0));
  rec.RecordFlow(MakeFlow(TrafficClass::kLongLived, 1000000, 100.0));
  EXPECT_EQ(rec.background_flows().size(), 1u);
  EXPECT_EQ(rec.query_flows().size(), 1u);
}

TEST(FlowRecorderTest, ShortBackgroundFilterBySize) {
  FlowRecorder rec;
  rec.RecordFlow(MakeFlow(TrafficClass::kBackground, 500, 1.0));     // below 1KB
  rec.RecordFlow(MakeFlow(TrafficClass::kBackground, 5000, 2.0));    // in range
  rec.RecordFlow(MakeFlow(TrafficClass::kBackground, 9000, 3.0));    // in range
  rec.RecordFlow(MakeFlow(TrafficClass::kBackground, 50000, 50.0));  // above 10KB
  const auto fcts = rec.BackgroundFctMs(1000, 10000);
  EXPECT_EQ(fcts.size(), 2u);
  EXPECT_NEAR(rec.ShortBackgroundFct99Ms(), 3.0, 0.02);
}

TEST(FlowRecorderTest, QctPercentile) {
  FlowRecorder rec;
  for (int i = 1; i <= 100; ++i) {
    QueryResult q;
    q.qct = Time::Millis(i);
    rec.RecordQuery(q);
  }
  EXPECT_NEAR(rec.Qct99Ms(), 99.0, 1.1);
  EXPECT_EQ(rec.QctSummary().count, 100u);
}

TEST(FlowRecorderTest, RetransmitAggregation) {
  FlowRecorder rec;
  FlowResult r = MakeFlow(TrafficClass::kQuery, 20000, 5.0);
  r.retransmits = 3;
  r.timeouts = 1;
  rec.RecordFlow(r);
  rec.RecordFlow(r);
  EXPECT_EQ(rec.total_retransmits(), 6u);
  EXPECT_EQ(rec.total_timeouts(), 2u);
}

TEST(FlowRecorderTest, EmptyMetricsAreZero) {
  FlowRecorder rec;
  EXPECT_EQ(rec.Qct99Ms(), 0.0);
  EXPECT_EQ(rec.ShortBackgroundFct99Ms(), 0.0);
}

Packet DeliveredPacket(uint16_t detours, bool ce = false,
                       TrafficClass cls = TrafficClass::kQuery) {
  Packet p;
  p.detour_count = detours;
  p.ce = ce;
  p.traffic_class = cls;
  return p;
}

// The events the Network's hooks dispatch for these inputs.
TraceEvent DetourEvent(int node, uint16_t port, const Packet& p, Time at) {
  return MakeTracePacketEvent(TraceEventType::kDetour, at, node, port, p);
}

TraceEvent DropEvent(int node, const Packet& p, DropReason reason, Time at) {
  return MakeTraceDropEvent(at, node, p, static_cast<uint8_t>(reason));
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

TEST(DetourRecorderTest, CountsDetoursByClass) {
  DetourRecorder rec;
  Packet q = DeliveredPacket(0, false, TrafficClass::kQuery);
  Packet b = DeliveredPacket(0, false, TrafficClass::kBackground);
  rec.OnEvent(DetourEvent(3, 1, q, Time::Millis(1)));
  rec.OnEvent(DetourEvent(3, 2, q, Time::Millis(1)));
  rec.OnEvent(DetourEvent(4, 1, b, Time::Millis(2)));
  EXPECT_EQ(rec.query_detours(), 2u);
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

TEST(DetourRecorderTest, DropAccountingByReason) {
  DetourRecorder rec;
  Packet p = DeliveredPacket(0);
  rec.OnEvent(DropEvent(1, p, DropReason::kTtlExpired, Time::Zero()));
  rec.OnEvent(DropEvent(1, p, DropReason::kQueueOverflow, Time::Zero()));
  rec.OnEvent(DropEvent(1, p, DropReason::kQueueOverflow, Time::Zero()));
  EXPECT_EQ(rec.drops(DropReason::kQueueOverflow), 2u);
  EXPECT_EQ(rec.drops(DropReason::kTtlExpired), 1u);
  EXPECT_EQ(rec.drops(DropReason::kNoDetourAvailable), 0u);
}

TEST(DetourRecorderTest, PfabricEvictionsStayOutOfTheDropTables) {
  DetourRecorder rec;
  rec.OnEvent(MakeTraceDropEvent(Time::Zero(), 1, DeliveredPacket(0), kTraceEvictionReason));
  for (uint64_t n : rec.drops_by_reason()) {
    EXPECT_EQ(n, 0u);
  }
}

TEST(DetourRecorderTest, DeliveredFractionAndQuantiles) {
  DetourRecorder rec;
  for (int i = 0; i < 80; ++i) {
    rec.OnEvent(DeliverEvent(0, DeliveredPacket(0), Time::Zero()));
  }
  for (int i = 0; i < 20; ++i) {
    rec.OnEvent(DeliverEvent(0, DeliveredPacket(5), Time::Zero()));
  }
  // The delivered total is Network's; the recorder keeps the detoured part.
  EXPECT_EQ(rec.delivered_with_detours(), 20u);
  // 80% of packets have detour count < 1.
  EXPECT_LE(rec.DetourCountQuantile(0.8), 1.0);
  EXPECT_GE(rec.DetourCountQuantile(0.95), 5.0);
}

TEST(DetourRecorderTest, MarkedDeliveryCount) {
  DetourRecorder rec;
  rec.OnEvent(DeliverEvent(0, DeliveredPacket(1, /*ce=*/true), Time::Zero()));
  rec.OnEvent(DeliverEvent(0, DeliveredPacket(0, /*ce=*/false), Time::Zero()));
  EXPECT_EQ(rec.delivered_marked(), 1u);
}

TEST(GuardRecorderTest, CountsTripsAndTrippedSwitchesFromTransitions) {
  GuardRecorder rec;
  // Switch 7: full cycle. Switch 9: trips and stays open.
  rec.OnEvent(GuardEvent(7, GuardState::kArmed, GuardState::kSuppressed, Time::Millis(1)));
  rec.OnEvent(GuardEvent(7, GuardState::kSuppressed, GuardState::kProbing, Time::Millis(5)));
  rec.OnEvent(GuardEvent(7, GuardState::kProbing, GuardState::kArmed, Time::Millis(7)));
  rec.OnEvent(GuardEvent(9, GuardState::kArmed, GuardState::kSuppressed, Time::Millis(2)));
  // PROBING -> SUPPRESSED re-opens but is not a fresh ARMED-edge trip.
  rec.OnEvent(GuardEvent(7, GuardState::kArmed, GuardState::kSuppressed, Time::Millis(10)));
  rec.OnEvent(GuardEvent(7, GuardState::kSuppressed, GuardState::kProbing, Time::Millis(14)));
  rec.OnEvent(GuardEvent(7, GuardState::kProbing, GuardState::kSuppressed, Time::Millis(16)));

  EXPECT_EQ(rec.trips(), 3u);
  EXPECT_EQ(rec.transition_count(), 7u);
}

TEST(GuardRecorderTest, SuppressedDwellIncludesOpenStretches) {
  GuardRecorder rec;
  rec.OnEvent(GuardEvent(7, GuardState::kArmed, GuardState::kSuppressed, Time::Millis(1)));
  rec.OnEvent(GuardEvent(7, GuardState::kSuppressed, GuardState::kProbing, Time::Millis(5)));
  rec.OnEvent(GuardEvent(9, GuardState::kArmed, GuardState::kSuppressed, Time::Millis(2)));
  // Switch 7 banked 4ms closed; switch 9 is still open at the 10ms cutoff.
  EXPECT_DOUBLE_EQ(rec.SuppressedMsUpTo(Time::Millis(10)), 4.0 + 8.0);
}

// Guard-attributed drops are entries of the one per-reason drop table.
TEST(GuardRecorderTest, AttributesGuardDropReasons) {
  DetourRecorder rec;
  Packet p = DeliveredPacket(0);
  rec.OnEvent(DropEvent(1, p, DropReason::kGuardSuppressed, Time::Zero()));
  rec.OnEvent(DropEvent(1, p, DropReason::kGuardSuppressed, Time::Zero()));
  rec.OnEvent(DropEvent(1, p, DropReason::kGuardTtlClamped, Time::Zero()));
  rec.OnEvent(DropEvent(1, p, DropReason::kNoEligibleDetour, Time::Zero()));
  rec.OnEvent(DropEvent(1, p, DropReason::kQueueOverflow, Time::Zero()));  // not guard's
  EXPECT_EQ(rec.drops(DropReason::kGuardSuppressed), 2u);
  EXPECT_EQ(rec.drops(DropReason::kGuardTtlClamped), 1u);
  EXPECT_EQ(rec.drops(DropReason::kNoEligibleDetour), 1u);
}

}  // namespace
}  // namespace dibs
