#include <gtest/gtest.h>

#include "tests/transport/transport_test_util.h"

namespace dibs {
namespace {

NetworkConfig DctcpNet() {
  NetworkConfig cfg;
  cfg.switch_buffer_packets = 100;
  cfg.ecn_threshold_packets = 20;
  return cfg;
}

TEST(DctcpTest, LongFlowsSeeMarks) {
  TransportHarness h(BuildEmulabTestbed(), DctcpNet(), TransportKind::kDctcp);
  // Two hosts on different racks hammer one receiver; the shared bottleneck
  // queue must exceed K and generate marks.
  const FlowId a = h.StartFlow(0, 5, 2000000);
  const FlowId b = h.StartFlow(2, 5, 2000000);
  h.Run();
  ASSERT_EQ(h.results().size(), 2u);
  uint64_t marked = 0;
  for (const FlowResult& r : h.results()) {
    marked += r.marked_acks;
  }
  EXPECT_GT(marked, 0u);
  (void)a;
  (void)b;
}

TEST(DctcpTest, AlphaStaysInUnitInterval) {
  TransportHarness h(BuildEmulabTestbed(), DctcpNet(), TransportKind::kDctcp);
  const FlowId a = h.StartFlow(0, 5, 5000000);
  h.StartFlow(2, 5, 5000000);
  // Sample alpha during the run.
  double max_alpha = 0;
  double min_alpha = 1;
  for (int i = 1; i <= 40; ++i) {
    h.RunUntil(Time::Millis(i));
    TcpSender* sender = h.flows().tcp_sender(a);
    if (sender == nullptr || sender->done()) {
      break;
    }
    max_alpha = std::max(max_alpha, sender->dctcp_alpha());
    min_alpha = std::min(min_alpha, sender->dctcp_alpha());
  }
  h.Run();
  EXPECT_GE(min_alpha, 0.0);
  EXPECT_LE(max_alpha, 1.0);
  EXPECT_GT(max_alpha, 0.0);  // congestion happened, alpha moved
}

TEST(DctcpTest, KeepsQueuesShallowerThanPlainTcp) {
  // Same offered load, same buffers; DCTCP's ECN response must keep the
  // bottleneck queue substantially shorter than loss-based TCP does. Plain
  // TCP is the same sender on a fabric that never marks: with no ECE, the
  // DCTCP update never cuts the window.
  auto max_depth = [](bool ecn) {
    NetworkConfig net_cfg;
    net_cfg.switch_buffer_packets = 200;
    net_cfg.ecn_threshold_packets = ecn ? 20 : 0;
    TransportHarness h(BuildEmulabTestbed(), net_cfg, TransportKind::kDctcp);
    h.StartFlow(0, 5, 3000000);
    h.StartFlow(2, 5, 3000000);
    h.TrackMaxQueueDepth(Time::Millis(40));
    h.RunUntil(Time::Millis(40));
    return h.max_queue_depth();
  };
  const size_t dctcp_depth = max_depth(/*ecn=*/true);
  const size_t tcp_depth = max_depth(/*ecn=*/false);
  EXPECT_LT(dctcp_depth, tcp_depth);
  // DCTCP queues hover near K=20; allow slack for the slow-start overshoot
  // before the first per-window cut takes effect.
  EXPECT_LE(dctcp_depth, 100u);
}

TEST(DctcpTest, NoDropsAtModerateLoadWithEcn) {
  TransportHarness h(BuildEmulabTestbed(), DctcpNet(), TransportKind::kDctcp);
  h.StartFlow(0, 5, 1000000);
  h.StartFlow(2, 5, 1000000);
  h.Run();
  EXPECT_EQ(h.net().total_drops(), 0u);
  EXPECT_EQ(h.results().size(), 2u);
}

TEST(DctcpTest, DibsHostConfigDisablesFastRetransmit) {
  const TcpConfig cfg = TcpConfig::DibsDefault();
  EXPECT_EQ(cfg.dupack_threshold, 0u);  // §4: fast retransmit disabled
  // End-to-end: with the DIBS network + host config, a lossless incast must
  // not generate retransmissions despite heavy detour reordering.
  NetworkConfig net_cfg = DctcpNet();
  net_cfg.detour_policy = "random";
  TransportHarness h(BuildEmulabTestbed(), net_cfg, TransportKind::kDctcp, cfg);
  for (HostId src = 0; src < 5; ++src) {
    h.StartFlow(src, 5, 100000, TrafficClass::kQuery);
  }
  h.Run();
  EXPECT_EQ(h.results().size(), 5u);
  EXPECT_EQ(h.net().total_drops(), 0u);
  uint32_t retx = 0;
  for (const FlowResult& r : h.results()) {
    retx += r.retransmits;
  }
  EXPECT_EQ(retx, 0u);  // no drops + reordering below the dup-ACK threshold
}

TEST(DctcpTest, EcnEchoPathDeliversMarks) {
  // Two senders share host 5's downlink, so the queue must exceed the tiny
  // threshold and the senders must observe ECE. (A single flow over equal-
  // rate links never builds a queue and would see no marks.)
  NetworkConfig net_cfg;
  net_cfg.switch_buffer_packets = 100;
  net_cfg.ecn_threshold_packets = 2;
  TransportHarness h(BuildEmulabTestbed(), net_cfg, TransportKind::kDctcp);
  const FlowId id = h.StartFlow(0, 5, 500000);
  h.StartFlow(2, 5, 500000);
  h.Run();
  const FlowResult* r = h.ResultFor(id);
  ASSERT_NE(r, nullptr);
  EXPECT_GT(r->marked_acks, 0u);
}

TEST(DctcpTest, WindowCutIsProportionalNotBrutal) {
  // With moderate marking DCTCP should not collapse to cwnd=1 (that is the
  // timeout response); ensure the flow sustains a multi-segment window.
  TransportHarness h(BuildEmulabTestbed(), DctcpNet(), TransportKind::kDctcp);
  const FlowId id = h.StartFlow(0, 5, 8000000);
  h.StartFlow(2, 5, 8000000);
  double min_cwnd_after_warmup = 1e9;
  for (int i = 10; i <= 50; i += 5) {
    h.RunUntil(Time::Millis(i));
    TcpSender* sender = h.flows().tcp_sender(id);
    if (sender == nullptr || sender->done()) {
      break;
    }
    min_cwnd_after_warmup = std::min(min_cwnd_after_warmup, sender->cwnd());
  }
  h.Run();
  EXPECT_GE(min_cwnd_after_warmup, 2.0);
}

}  // namespace
}  // namespace dibs
