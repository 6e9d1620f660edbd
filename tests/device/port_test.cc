#include "src/device/port.h"

#include <gtest/gtest.h>

#include "src/device/network.h"
#include "src/device/host_node.h"
#include "src/topo/builders.h"

namespace dibs {
namespace {

// Two hosts hanging off one switch: host0 -- sw -- host1, 1Gbps, 1us delay.
Topology TwoHostTopology() {
  Topology t;
  const int sw = t.AddNode(NodeKind::kSwitch, "sw");
  for (int i = 0; i < 2; ++i) {
    const int h = t.AddHost("h" + std::to_string(i));
    t.AddLink(h, sw, kGbps, Time::Micros(1));
  }
  return t;
}

Packet RawPacket(Network& net, HostId src, HostId dst, uint32_t size = 1500) {
  Packet p;
  p.uid = net.NextPacketUid();
  p.src = src;
  p.dst = dst;
  p.size_bytes = size;
  p.ttl = 64;
  p.flow = 1;
  p.sent_time = net.sim().Now();
  return p;
}

TEST(PortTest, EndToEndLatencyIsSerializationPlusPropagation) {
  Simulator sim;
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  Time delivered;
  net.host(1).RegisterFlowReceiver(1, [&](Packet&& p) { delivered = sim.Now(); });

  net.host(0).Send(RawPacket(net, 0, 1));
  sim.Run();
  // Two hops: (12us serialization + 1us propagation) each = 26us.
  EXPECT_EQ(delivered, Time::Micros(26));
}

TEST(PortTest, SmallPacketsAreFaster) {
  Simulator sim;
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  Time delivered;
  net.host(1).RegisterFlowReceiver(1, [&](Packet&& p) { delivered = sim.Now(); });

  net.host(0).Send(RawPacket(net, 0, 1, /*size=*/40));  // ACK-sized
  sim.Run();
  // 40B at 1Gbps = 320ns per hop + 1us delay: 2*(320ns + 1us) = 2.64us.
  EXPECT_EQ(delivered, Time::Nanos(2640));
}

TEST(PortTest, BackToBackPacketsPipelineAtLineRate) {
  Simulator sim;
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  std::vector<Time> arrivals;
  net.host(1).RegisterFlowReceiver(1, [&](Packet&& p) { arrivals.push_back(sim.Now()); });

  for (int i = 0; i < 10; ++i) {
    net.host(0).Send(RawPacket(net, 0, 1));
  }
  sim.Run();
  ASSERT_EQ(arrivals.size(), 10u);
  // Consecutive deliveries exactly one serialization time (12us) apart.
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], Time::Micros(12));
  }
}

TEST(PortTest, TransmitCountersAdvance) {
  Simulator sim;
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  net.host(0).Send(RawPacket(net, 0, 1));
  net.host(0).Send(RawPacket(net, 0, 1));
  sim.Run();
  EXPECT_EQ(net.host(0).nic().packets_sent(), 2u);
  EXPECT_EQ(net.host(0).nic().bytes_sent(), 3000u);
}

TEST(PortTest, StrayPacketsCounted) {
  Simulator sim;
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  net.host(0).Send(RawPacket(net, 0, 1));  // no receiver registered for flow 1
  sim.Run();
  EXPECT_EQ(net.host(1).stray_packets(), 1u);
  EXPECT_EQ(net.total_delivered(), 1u);
}

}  // namespace
}  // namespace dibs
