#include "src/transport/tcp_sender.h"

#include <gtest/gtest.h>

#include "tests/transport/transport_test_util.h"

namespace dibs {
namespace {

TEST(TcpTest, SingleFlowCompletes) {
  TransportHarness h(BuildEmulabTestbed(), NetworkConfig{}, TransportKind::kDctcp);
  const FlowId id = h.StartFlow(0, 5, 100000);
  h.Run();
  const FlowResult* r = h.ResultFor(id);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->spec.size_bytes, 100000u);
  EXPECT_EQ(r->segments, SegmentsForBytes(100000));
  EXPECT_GT(r->fct, Time::Zero());
  EXPECT_EQ(r->retransmits, 0u);
  EXPECT_EQ(r->timeouts, 0u);
}

TEST(TcpTest, FctIsAtLeastTheIdealTransferTime) {
  TransportHarness h(BuildEmulabTestbed(), NetworkConfig{}, TransportKind::kDctcp);
  const uint64_t bytes = 1000000;
  const FlowId id = h.StartFlow(0, 5, bytes);
  h.Run();
  const FlowResult* r = h.ResultFor(id);
  ASSERT_NE(r, nullptr);
  // 1MB at 1Gbps is 8ms of pure serialization; FCT must exceed it.
  EXPECT_GT(r->fct, Time::Millis(8));
  EXPECT_LT(r->fct, Time::Millis(40));  // and not be wildly slow
}

TEST(TcpTest, SingleSegmentFlow) {
  TransportHarness h(BuildEmulabTestbed(), NetworkConfig{}, TransportKind::kDctcp);
  const FlowId id = h.StartFlow(0, 5, 500);
  h.Run();
  const FlowResult* r = h.ResultFor(id);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->segments, 1u);
}

TEST(TcpTest, ZeroByteFlowStillCompletes) {
  TransportHarness h(BuildEmulabTestbed(), NetworkConfig{}, TransportKind::kDctcp);
  const FlowId id = h.StartFlow(0, 5, 0);
  h.Run();
  EXPECT_NE(h.ResultFor(id), nullptr);
}

TEST(TcpTest, ExactMultipleOfMssFlow) {
  TransportHarness h(BuildEmulabTestbed(), NetworkConfig{}, TransportKind::kDctcp);
  const FlowId id = h.StartFlow(0, 5, static_cast<uint64_t>(kMaxSegmentBytes) * 7);
  h.Run();
  const FlowResult* r = h.ResultFor(id);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->segments, 7u);
}

TEST(TcpTest, ManyParallelFlowsAllComplete) {
  TransportHarness h(BuildEmulabTestbed(), NetworkConfig{}, TransportKind::kDctcp);
  for (HostId src = 0; src < 5; ++src) {
    for (int i = 0; i < 4; ++i) {
      h.StartFlow(src, 5, 50000);
    }
  }
  h.Run();
  EXPECT_EQ(h.results().size(), 20u);
  EXPECT_EQ(h.flows().flows_completed(), 20u);
}

TEST(TcpTest, InitialWindowBoundsFirstBurst) {
  TcpConfig cfg;
  cfg.init_cwnd_segments = 10;
  TransportHarness h(BuildEmulabTestbed(), NetworkConfig{}, TransportKind::kDctcp, cfg);
  h.StartFlow(0, 5, 1000000);
  // Before the first ACK can arrive (RTT ~ 50us+), at most 10 data packets
  // may have left the NIC.
  h.RunUntil(Time::Micros(30));
  EXPECT_LE(h.net().host(0).nic().packets_sent(), 10u);
  h.Run();
  EXPECT_EQ(h.results().size(), 1u);
}

TEST(TcpTest, SlowStartGrowsWindow) {
  TransportHarness h(BuildEmulabTestbed(), NetworkConfig{}, TransportKind::kDctcp);
  const FlowId id = h.StartFlow(0, 5, 3000000);
  h.RunUntil(Time::Millis(3));
  TcpSender* sender = h.flows().tcp_sender(id);
  ASSERT_NE(sender, nullptr);
  EXPECT_GT(sender->cwnd(), 10.0);
  EXPECT_GT(sender->snd_una(), 0u);
}

TEST(TcpTest, LossRecoveryViaFastRetransmit) {
  NetworkConfig net_cfg;
  net_cfg.switch_buffer_packets = 8;
  net_cfg.ecn_threshold_packets = 0;  // no marks: force actual drops
  TcpConfig tcp_cfg;
  tcp_cfg.dupack_threshold = 3;
  TransportHarness h(BuildEmulabTestbed(), net_cfg, TransportKind::kDctcp, tcp_cfg);
  // Four senders converge on host 5: the 8-packet buffer must overflow.
  std::vector<FlowId> ids;
  for (HostId src = 0; src < 4; ++src) {
    ids.push_back(h.StartFlow(src, 5, 200000));
  }
  h.Run();
  EXPECT_EQ(h.results().size(), 4u);
  uint32_t total_retx = 0;
  for (const FlowResult& r : h.results()) {
    total_retx += r.retransmits;
  }
  EXPECT_GT(total_retx, 0u);
  EXPECT_GT(h.net().total_drops(), 0u);
}

TEST(TcpTest, FastRetransmitDisabledRecoversViaTimeout) {
  NetworkConfig net_cfg;
  net_cfg.switch_buffer_packets = 8;
  net_cfg.ecn_threshold_packets = 0;
  TcpConfig tcp_cfg;
  tcp_cfg.dupack_threshold = 0;  // DIBS host setting
  tcp_cfg.min_rto = Time::Millis(1);
  TransportHarness h(BuildEmulabTestbed(), net_cfg, TransportKind::kDctcp, tcp_cfg);
  for (HostId src = 0; src < 4; ++src) {
    h.StartFlow(src, 5, 200000);
  }
  h.Run();
  EXPECT_EQ(h.results().size(), 4u);
  uint32_t total_timeouts = 0;
  for (const FlowResult& r : h.results()) {
    total_timeouts += r.timeouts;
  }
  EXPECT_GT(total_timeouts, 0u);
}

TEST(TcpTest, RetransmittedDataIsNotDoubleCounted) {
  NetworkConfig net_cfg;
  net_cfg.switch_buffer_packets = 6;
  net_cfg.ecn_threshold_packets = 0;
  TcpConfig tcp_cfg;
  TransportHarness h(BuildEmulabTestbed(), net_cfg, TransportKind::kDctcp, tcp_cfg);
  std::vector<FlowId> ids;
  for (HostId src = 0; src < 4; ++src) {
    ids.push_back(h.StartFlow(src, 5, 150000));
  }
  h.Run();
  for (FlowId id : ids) {
    const FlowResult* r = h.ResultFor(id);
    ASSERT_NE(r, nullptr);
    TcpReceiver* recv = h.flows().receiver(id);
    ASSERT_NE(recv, nullptr);
    EXPECT_EQ(recv->segments_received(), r->segments);
    EXPECT_TRUE(recv->complete());
  }
}

TEST(TcpTest, MinRtoRespected) {
  TcpConfig cfg;
  cfg.min_rto = Time::Millis(10);
  TransportHarness h(BuildEmulabTestbed(), NetworkConfig{}, TransportKind::kDctcp, cfg);
  const FlowId id = h.StartFlow(0, 5, 4000000);
  h.RunUntil(Time::Millis(2));
  TcpSender* sender = h.flows().tcp_sender(id);
  ASSERT_NE(sender, nullptr);
  // RTT is tens of microseconds; the RTO must still be clamped to >= 10ms.
  EXPECT_GE(sender->current_rto(), Time::Millis(10));
}

TEST(TcpTest, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    TransportHarness h(BuildEmulabTestbed(), NetworkConfig{}, TransportKind::kDctcp,
                       TcpConfig(), /*seed=*/5);
    for (HostId src = 0; src < 4; ++src) {
      h.StartFlow(src, 5, 80000);
    }
    h.Run();
    std::vector<int64_t> fcts;
    for (const FlowResult& r : h.results()) {
      fcts.push_back(r.fct.nanos());
    }
    return fcts;
  };
  EXPECT_EQ(run(), run());
}

// Sweep flow sizes: every size completes and delivers exactly its bytes.
class FlowSizeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlowSizeSweep, CompletesWithExactSegments) {
  TransportHarness h(BuildEmulabTestbed(), NetworkConfig{}, TransportKind::kDctcp);
  const FlowId id = h.StartFlow(0, 5, GetParam());
  h.Run();
  const FlowResult* r = h.ResultFor(id);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->segments, SegmentsForBytes(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FlowSizeSweep,
                         ::testing::Values(1, 100, 1459, 1460, 1461, 10000, 65536, 500000));

}  // namespace
}  // namespace dibs
