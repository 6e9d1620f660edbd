#include "src/device/network.h"

#include <gtest/gtest.h>

#include "src/device/host_node.h"
#include "src/device/switch_node.h"
#include "src/net/droptail_queue.h"
#include "src/net/pfabric_queue.h"
#include "src/topo/builders.h"

namespace dibs {
namespace {

TEST(NetworkTest, BuildsPaperFatTree) {
  Simulator sim;
  Network net(&sim, BuildPaperFatTree(), NetworkConfig{});
  EXPECT_EQ(net.num_hosts(), 128);
  EXPECT_EQ(net.switch_ids().size(), 80u);
  for (int sw : net.switch_ids()) {
    EXPECT_EQ(net.switch_at(sw).num_ports(), 8u);
  }
}

TEST(NetworkTest, PacketUidsAreUnique) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  const uint64_t a = net.NextPacketUid();
  const uint64_t b = net.NextPacketUid();
  EXPECT_NE(a, b);
  EXPECT_GT(b, a);
}

TEST(NetworkTest, SwitchQueuesHonorConfig) {
  NetworkConfig cfg;
  cfg.switch_buffer_packets = 37;
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), cfg);
  for (int sw : net.switch_ids()) {
    SwitchNode& node = net.switch_at(sw);
    for (uint16_t i = 0; i < node.num_ports(); ++i) {
      EXPECT_EQ(node.port(i).queue().capacity_packets(), 37u);
    }
  }
}

TEST(NetworkTest, PfabricModeInstallsPriorityQueues) {
  NetworkConfig cfg;
  cfg.pfabric_queues = true;
  cfg.pfabric_buffer_packets = 24;
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), cfg);
  SwitchNode& node = net.switch_at(net.switch_ids()[0]);
  EXPECT_NE(dynamic_cast<PfabricQueue*>(&node.port(0).queue()), nullptr);
  EXPECT_EQ(node.port(0).queue().capacity_packets(), 24u);
}

TEST(NetworkTest, SharedBufferModeMakesUnboundedPerPortQueues) {
  NetworkConfig cfg;
  cfg.use_shared_buffer = true;
  cfg.shared_buffer_packets = 64;
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), cfg);
  SwitchNode& node = net.switch_at(net.switch_ids()[0]);
  // Per-port static capacity reports 0 (pool-managed).
  EXPECT_EQ(node.port(0).queue().capacity_packets(), 0u);
}

TEST(NetworkTest, SharedBufferCapsWholeSwitch) {
  NetworkConfig cfg;
  cfg.use_shared_buffer = true;
  cfg.shared_buffer_packets = 8;
  cfg.shared_buffer_alpha = 100.0;  // effectively only the pool cap binds
  cfg.detour_policy = "none";
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), cfg);
  // Blast 50 packets from hosts 0,1 (same edge) to host 2 in one instant:
  // the shared pool (8 slots) + in-flight transmissions bound acceptance.
  int received = 0;
  net.host(2).RegisterFlowReceiver(1, [&](Packet&& p) { ++received; });
  for (int i = 0; i < 25; ++i) {
    for (HostId src : {0, 1}) {
      Packet p;
      p.uid = net.NextPacketUid();
      p.src = src;
      p.dst = 2;
      p.size_bytes = 1500;
      p.ttl = 64;
      p.flow = 1;
      net.host(src).Send(std::move(p));
    }
  }
  sim.Run();
  EXPECT_GT(net.total_drops(), 0u);
  EXPECT_LT(received, 50);
  EXPECT_GT(received, 0);
}

TEST(NetworkTest, ObserverSeesDeliveries) {
  struct CountingSink : TraceSink {
    int delivered = 0;
    void OnEvent(const TraceEvent& e) override { ++delivered; }
  };
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  CountingSink obs;
  net.Subscribe(&obs, TraceKinds({TraceEventType::kHostDeliver}));
  Packet p;
  p.uid = net.NextPacketUid();
  p.src = 0;
  p.dst = 5;
  p.size_bytes = 100;
  p.ttl = 64;
  p.flow = 9;
  net.host(0).Send(std::move(p));
  sim.Run();
  EXPECT_EQ(obs.delivered, 1);
  EXPECT_EQ(net.total_delivered(), 1u);
}

TEST(NetworkTest, DetourPolicyFactoryWiring) {
  NetworkConfig cfg;
  cfg.detour_policy = "load-aware";
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), cfg);
  EXPECT_EQ(net.detour_policy(), DetourPolicy::kLoadAware);
}

// NotifyDrop keeps the one per-reason drop table. The packets carry uid 0,
// which the DIBS_VALIDATE ledger exempts as synthetic traffic.
TEST(NetworkDropTableTest, DropAccountingByReason) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  const Packet p;
  net.NotifyDrop(1, p, DropReason::kTtlExpired);
  net.NotifyDrop(1, p, DropReason::kQueueOverflow);
  net.NotifyDrop(1, p, DropReason::kQueueOverflow);
  EXPECT_EQ(net.drops(DropReason::kQueueOverflow), 2u);
  EXPECT_EQ(net.drops(DropReason::kTtlExpired), 1u);
  EXPECT_EQ(net.drops(DropReason::kNoDetourAvailable), 0u);
  EXPECT_EQ(net.total_drops(), 3u);
}

TEST(NetworkDropTableTest, PfabricEvictionsStayOutOfTheDropTables) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  net.NotifyEviction(1, Packet{});
  for (uint64_t n : net.drops_by_reason()) {
    EXPECT_EQ(n, 0u);
  }
  EXPECT_EQ(net.total_drops(), 0u);
}

// Guard-attributed drops are entries of the same table.
TEST(NetworkDropTableTest, AttributesGuardDropReasons) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  const Packet p;
  net.NotifyDrop(1, p, DropReason::kGuardSuppressed);
  net.NotifyDrop(1, p, DropReason::kGuardSuppressed);
  net.NotifyDrop(1, p, DropReason::kGuardTtlClamped);
  net.NotifyDrop(1, p, DropReason::kNoEligibleDetour);
  net.NotifyDrop(1, p, DropReason::kQueueOverflow);  // not guard's
  EXPECT_EQ(net.drops(DropReason::kGuardSuppressed), 2u);
  EXPECT_EQ(net.drops(DropReason::kGuardTtlClamped), 1u);
  EXPECT_EQ(net.drops(DropReason::kNoEligibleDetour), 1u);
}

// Every built-in topology builds a functioning network end to end.
class TopologySweep : public ::testing::TestWithParam<int> {};

TEST_P(TopologySweep, AnyHostReachesAnyHost) {
  Topology topo;
  switch (GetParam()) {
    case 0:
      topo = BuildEmulabTestbed();
      break;
    case 1: {
      FatTreeOptions o;
      o.k = 4;
      topo = BuildFatTree(o);
      break;
    }
    case 2:
      topo = BuildLeafSpine(LeafSpineOptions{});
      break;
    case 3:
      topo = BuildLinear(4, 2);
      break;
    case 4:
      topo = BuildJellyFish(JellyFishOptions{});
      break;
  }
  Simulator sim;
  Network net(&sim, std::move(topo), NetworkConfig{});
  const HostId last = static_cast<HostId>(net.num_hosts() - 1);
  int received = 0;
  net.host(last).RegisterFlowReceiver(1, [&](Packet&& p) { ++received; });
  net.host(0).RegisterFlowReceiver(1, [&](Packet&& p) { ++received; });
  for (HostId src : {static_cast<HostId>(0), last}) {
    Packet p;
    p.uid = net.NextPacketUid();
    p.src = src;
    p.dst = src == 0 ? last : 0;
    p.size_bytes = 1500;
    p.ttl = 64;
    p.flow = 1;
    net.host(src).Send(std::move(p));
  }
  sim.Run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(net.total_drops(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, TopologySweep, ::testing::Range(0, 5));

}  // namespace
}  // namespace dibs
