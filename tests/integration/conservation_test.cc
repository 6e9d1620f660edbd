// Packet-conservation properties: across detour policies, topologies, and
// loads, every transmitted byte is either delivered, dropped (with a counted
// reason), or still buffered when the run is truncated. These invariants
// catch forwarding-path leaks that behavioral tests miss.

#include <gtest/gtest.h>

#include <tuple>

#include "src/trace/trace_sink.h"
#include "tests/transport/transport_test_util.h"

namespace dibs {
namespace {

class CountingSink : public TraceSink {
 public:
  static constexpr TraceKindSet kKinds = TraceKinds(
      {TraceEventType::kDetour, TraceEventType::kDrop, TraceEventType::kHostDeliver});

  uint64_t drops = 0;
  uint64_t detours = 0;
  uint64_t delivered = 0;

  void OnEvent(const TraceEvent& e) override {
    if (e.type == TraceEventType::kDetour) {
      ++detours;
    } else if (e.type == TraceEventType::kDrop) {
      ++drops;
    } else {
      ++delivered;  // kHostDeliver, the only other subscribed kind
    }
  }
};

using Param = std::tuple<std::string, size_t>;  // (policy, buffer)

class ConservationSweep : public ::testing::TestWithParam<Param> {};

TEST_P(ConservationSweep, FlowsCompleteAndCountsBalance) {
  const auto& [policy, buffer] = GetParam();
  NetworkConfig net_cfg;
  net_cfg.switch_buffer_packets = buffer;
  net_cfg.detour_policy = policy;
  TcpConfig tcp_cfg;
  tcp_cfg.dupack_threshold = policy == "none" ? 3 : 0;
  TransportHarness h(BuildEmulabTestbed(), net_cfg, TransportKind::kDctcp, tcp_cfg,
                     /*seed=*/17);
  CountingSink obs;
  h.net().Subscribe(&obs, CountingSink::kKinds);

  for (HostId src = 0; src < 5; ++src) {
    for (int i = 0; i < 3; ++i) {
      h.StartFlow(src, 5, 40000, TrafficClass::kQuery);
    }
  }
  h.Run();

  // Reliability: every flow completes eventually regardless of policy.
  EXPECT_EQ(h.results().size(), 15u);

  // Conservation: everything the hosts sent is accounted for. At quiescence
  // nothing is buffered, so sent == delivered + dropped (host NIC queues are
  // unbounded and never refuse a packet).
  uint64_t sent = 0;
  for (HostId hid = 0; hid < 6; ++hid) {
    sent += h.net().host(hid).nic().packets_sent();
  }
  EXPECT_EQ(sent, obs.delivered + obs.drops);
  EXPECT_EQ(obs.delivered, h.net().total_delivered());
  EXPECT_EQ(obs.drops, h.net().total_drops());

  if (policy == "none") {
    EXPECT_EQ(obs.detours, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyBufferMatrix, ConservationSweep,
    ::testing::Combine(::testing::Values("none", "random", "load-aware", "flow-based",
                                         "probabilistic"),
                       ::testing::Values(size_t{5}, size_t{25}, size_t{100})));

TEST(ConservationTest, HoldsOnFatTreeUnderIncast) {
  NetworkConfig net_cfg;
  net_cfg.detour_policy = "random";
  net_cfg.switch_buffer_packets = 20;
  TransportHarness h(BuildPaperFatTree(), net_cfg, TransportKind::kDctcp,
                     TcpConfig::DibsDefault(), /*seed=*/23);
  CountingSink obs;
  h.net().Subscribe(&obs, CountingSink::kKinds);
  for (HostId src = 1; src <= 30; ++src) {
    h.StartFlow(src, 0, 20000, TrafficClass::kQuery);
  }
  h.Run();
  EXPECT_EQ(h.results().size(), 30u);
  uint64_t sent = 0;
  for (HostId hid = 0; hid < 128; ++hid) {
    sent += h.net().host(hid).nic().packets_sent();
  }
  EXPECT_EQ(sent, obs.delivered + obs.drops);
}

TEST(ConservationTest, HoldsOnJellyFish) {
  NetworkConfig net_cfg;
  net_cfg.detour_policy = "random";
  net_cfg.switch_buffer_packets = 10;
  TransportHarness h(BuildJellyFish(JellyFishOptions{}), net_cfg, TransportKind::kDctcp,
                     TcpConfig::DibsDefault(), /*seed=*/29);
  CountingSink obs;
  h.net().Subscribe(&obs, CountingSink::kKinds);
  const HostId target = 0;
  for (HostId src = 1; src <= 12; ++src) {
    h.StartFlow(src, target, 30000, TrafficClass::kQuery);
  }
  h.Run();
  EXPECT_EQ(h.results().size(), 12u);
  uint64_t sent = 0;
  for (HostId hid = 0; hid < static_cast<HostId>(h.net().num_hosts()); ++hid) {
    sent += h.net().host(hid).nic().packets_sent();
  }
  EXPECT_EQ(sent, obs.delivered + obs.drops);
}

TEST(ConservationTest, LinearTopologyWorstCaseStillDelivers) {
  // §7 footnote: DIBS functions even on a linear topology where detours can
  // only go backwards.
  NetworkConfig net_cfg;
  net_cfg.detour_policy = "random";
  net_cfg.switch_buffer_packets = 5;
  TransportHarness h(BuildLinear(4, 2), net_cfg, TransportKind::kDctcp,
                     TcpConfig::DibsDefault(), /*seed=*/31);
  for (HostId src = 0; src < 6; ++src) {
    h.StartFlow(src, 7, 20000, TrafficClass::kQuery);
  }
  h.Run();
  EXPECT_EQ(h.results().size(), 6u);
}

}  // namespace
}  // namespace dibs
