#include "src/transport/pfabric_sender.h"

#include <gtest/gtest.h>

#include "src/transport/tcp_receiver.h"
#include "tests/transport/transport_test_util.h"

namespace dibs {
namespace {

NetworkConfig PfabricNet() {
  NetworkConfig cfg;
  cfg.pfabric_queues = true;
  cfg.pfabric_buffer_packets = 24;
  cfg.ecn_threshold_packets = 0;
  return cfg;
}

TEST(PfabricTest, SingleFlowCompletes) {
  TransportHarness h(BuildEmulabTestbed(), PfabricNet(), TransportKind::kPfabric);
  const FlowId id = h.StartFlow(0, 5, 100000);
  h.Run();
  const FlowResult* r = h.ResultFor(id);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(h.flows().receiver(id)->segments_received(), SegmentsForBytes(100000));
}

TEST(PfabricTest, PrioritiesDecreaseAlongFlow) {
  TransportHarness h(BuildEmulabTestbed(), PfabricNet(), TransportKind::kPfabric);
  const FlowId id = h.StartFlow(0, 5, 150000);
  // Trace events carry no priority, so tap the data delivered to host 5
  // ahead of the flow's own receiver.
  std::vector<std::pair<uint32_t, int64_t>> data;  // (seq, priority)
  TcpReceiver* receiver = h.flows().receiver(id);
  h.net().host(5).UnregisterFlowReceiver(id);
  h.net().host(5).RegisterFlowReceiver(id, [&data, receiver](Packet&& p) {
    data.emplace_back(p.seq, p.priority);
    receiver->OnData(std::move(p));
  });
  h.Run();
  ASSERT_FALSE(data.empty());
  for (const auto& [seq, priority] : data) {
    // priority = (total_segments - seq) * MSS: strictly decreasing in seq.
    EXPECT_EQ(priority,
              static_cast<int64_t>(SegmentsForBytes(150000) - seq) * kMaxSegmentBytes);
  }
}

TEST(PfabricTest, ShortFlowPreemptsLongFlow) {
  TransportHarness h(BuildEmulabTestbed(), PfabricNet(), TransportKind::kPfabric);
  // Long flow saturates the path to host 5 first.
  h.StartFlow(0, 5, 5000000, TrafficClass::kBackground);
  h.sim().RunUntil(Time::Millis(5));
  // Now a short flow arrives from another rack.
  const FlowId short_id = h.StartFlow(2, 5, 20000, TrafficClass::kQuery);
  h.Run();
  const FlowResult* short_r = h.ResultFor(short_id);
  ASSERT_NE(short_r, nullptr);
  // 20KB unloaded takes ~0.2ms; with pFabric priority it must stay near that
  // despite the competing 5MB flow (which alone would take 40ms).
  EXPECT_LT(short_r->fct, Time::Millis(2));
}

TEST(PfabricTest, IncastWithEvictionsStillCompletes) {
  TransportHarness h(BuildEmulabTestbed(), PfabricNet(), TransportKind::kPfabric);
  for (HostId src = 0; src < 5; ++src) {
    h.StartFlow(src, 5, 100000, TrafficClass::kQuery);
  }
  h.Run();
  EXPECT_EQ(h.results().size(), 5u);
  uint32_t timeouts = 0;
  for (const FlowResult& r : h.results()) {
    timeouts += r.timeouts;
  }
  // 5 * ~12-segment windows into 24-packet queues: losses and timeouts are
  // expected, and the tiny RTO recovers them.
  EXPECT_GT(timeouts, 0u);
}

TEST(PfabricTest, TimeoutsRecoverLostTail) {
  TransportHarness h(BuildEmulabTestbed(), PfabricNet(), TransportKind::kPfabric);
  std::vector<FlowId> ids;
  for (HostId src = 0; src < 5; ++src) {
    ids.push_back(h.StartFlow(src, 5, 60000));
  }
  h.Run();
  for (FlowId id : ids) {
    TcpReceiver* recv = h.flows().receiver(id);
    ASSERT_NE(recv, nullptr);
    EXPECT_TRUE(recv->complete());
  }
}

TEST(PfabricTest, ProbeModeBoundsRetransmissionStorms) {
  // Heavy incast: retransmissions happen but must stay bounded relative to
  // flow size thanks to probe mode (window collapses to 1 after repeated
  // timeouts).
  TransportHarness h(BuildEmulabTestbed(), PfabricNet(), TransportKind::kPfabric);
  for (HostId src = 0; src < 5; ++src) {
    h.StartFlow(src, 5, 40000);
  }
  h.Run();
  uint32_t retx = 0;
  for (const FlowResult& r : h.results()) {
    retx += r.retransmits;
  }
  const uint32_t total_segments = 5 * SegmentsForBytes(40000);
  EXPECT_LT(retx, total_segments * 10);
}

}  // namespace
}  // namespace dibs
