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

// Jitter far above the 12 us serialization time reorders the wire: packets
// leave the wire slab out of order, and each must still arrive exactly once
// with every field the fabric does not rewrite intact.
TEST(PortTest, JitteredWireDeliversEveryPacketOnceAndIntact) {
  Simulator sim(3);
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  net.host(0).nic().SetDegraded(/*loss_probability=*/0, /*extra_jitter=*/Time::Micros(600));
  constexpr uint32_t kPackets = 60;
  std::vector<Packet> sent;
  for (uint32_t i = 0; i < kPackets; ++i) {
    Packet p = RawPacket(net, 0, 1, /*size=*/100 + 20 * i);
    p.seq = i;
    p.ack_seq = 1000 + i;
    p.priority = 7 * i;
    p.traffic_class = i % 2 == 0 ? TrafficClass::kQuery : TrafficClass::kBackground;
    p.fin = i % 5 == 0;
    sent.push_back(p);
    net.host(0).Send(std::move(p));
  }
  std::vector<Packet> received;
  net.host(1).RegisterFlowReceiver(1, [&](Packet&& p) { received.push_back(p); });
  sim.Run();

  ASSERT_EQ(received.size(), kPackets);
  std::vector<int> seen(kPackets, 0);
  bool in_send_order = true;
  for (size_t k = 0; k < received.size(); ++k) {
    const Packet& p = received[k];
    ASSERT_LT(p.seq, kPackets);
    ++seen[p.seq];
    in_send_order = in_send_order && p.seq == k;
    const Packet& s = sent[p.seq];
    EXPECT_EQ(p.uid, s.uid);
    EXPECT_EQ(p.src, s.src);
    EXPECT_EQ(p.dst, s.dst);
    EXPECT_EQ(p.size_bytes, s.size_bytes);
    EXPECT_EQ(p.flow, s.flow);
    EXPECT_EQ(p.ack_seq, s.ack_seq);
    EXPECT_EQ(p.priority, s.priority);
    EXPECT_EQ(p.traffic_class, s.traffic_class);
    EXPECT_EQ(p.fin, s.fin);
    EXPECT_EQ(p.sent_time, s.sent_time);
    EXPECT_EQ(p.detour_count, 0u);
  }
  for (uint32_t i = 0; i < kPackets; ++i) {
    EXPECT_EQ(seen[i], 1) << "packet " << i;
  }
  EXPECT_FALSE(in_send_order) << "the jitter should have reordered the wire";
}

}  // namespace
}  // namespace dibs
