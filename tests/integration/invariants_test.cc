// Invariant / abuse tests: API misuse must fail loudly (death tests on the
// checked contracts) and degenerate inputs must be handled, not mishandled.

#include <gtest/gtest.h>

#include "src/device/host_node.h"
#include "src/device/network.h"
#include "src/topo/builders.h"
#include "src/transport/flow_manager.h"
#include "src/util/validation.h"
#include "src/workload/distributions.h"

namespace dibs {
namespace {

TEST(InvariantsDeathTest, SchedulingIntoThePastAborts) {
  Simulator sim;
  sim.RunUntil(Time::Millis(5));
  if (validate::Enabled()) {
    // DIBS_VALIDATE reports the misuse as a catchable ValidationError before
    // the abort path is reached.
    EXPECT_THROW(sim.ScheduleAt(Time::Millis(1), [] {}), ValidationError);
  } else {
    EXPECT_DEATH(sim.ScheduleAt(Time::Millis(1), [] {}), "past");
  }
}

TEST(InvariantsDeathTest, SelfFlowRejected) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  FlowManager flows(&net, TransportKind::kDctcp);
  EXPECT_DEATH(flows.StartFlow(2, 2, 1000, TrafficClass::kBackground, nullptr), "");
}

TEST(InvariantsDeathTest, OutOfRangeHostRejected) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  FlowManager flows(&net, TransportKind::kDctcp);
  EXPECT_DEATH(flows.StartFlow(0, 99, 1000, TrafficClass::kBackground, nullptr), "");
}

TEST(InvariantsDeathTest, DuplicateFlowReceiverRejected) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  net.host(0).RegisterFlowReceiver(7, [](Packet&&) {});
  EXPECT_DEATH(net.host(0).RegisterFlowReceiver(7, [](Packet&&) {}), "duplicate");
}

TEST(InvariantsDeathTest, UnknownDetourPolicyAborts) {
  NetworkConfig cfg;
  cfg.detour_policy = "teleport";
  Simulator sim;
  EXPECT_DEATH(Network net(&sim, BuildEmulabTestbed(), cfg), "unknown detour policy");
}

TEST(InvariantsDeathTest, EmpiricalCdfRejectsBadKnots) {
  // Non-increasing values.
  EXPECT_DEATH(EmpiricalCdf({{10, 0.0}, {5, 1.0}}), "");
  // Probabilities not ending at 1.
  EXPECT_DEATH(EmpiricalCdf({{1, 0.0}, {2, 0.5}}), "");
  // Decreasing probabilities.
  EXPECT_DEATH(EmpiricalCdf({{1, 0.5}, {2, 0.2}, {3, 1.0}}), "");
}

TEST(InvariantsDeathTest, FatTreeRequiresEvenK) {
  FatTreeOptions opts;
  opts.k = 5;
  EXPECT_DEATH(BuildFatTree(opts), "even");
}

TEST(InvariantsTest, UnregisterThenReregisterIsAllowed) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  net.host(0).RegisterFlowReceiver(7, [](Packet&&) {});
  net.host(0).UnregisterFlowReceiver(7);
  net.host(0).RegisterFlowReceiver(7, [](Packet&&) {});
}

TEST(InvariantsTest, ReceiverCanUnregisterItselfDuringDelivery) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  int deliveries = 0;
  net.host(1).RegisterFlowReceiver(9, [&](Packet&&) {
    ++deliveries;
    net.host(1).UnregisterFlowReceiver(9);  // must not invalidate the call
  });
  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.uid = net.NextPacketUid();
    p.src = 0;
    p.dst = 1;
    p.size_bytes = 100;
    p.ttl = 8;
    p.flow = 9;
    net.host(0).Send(std::move(p));
  }
  sim.Run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(net.host(1).stray_packets(), 2u);
}

TEST(InvariantsTest, MinimalFatTreeWorksEndToEnd) {
  // K=2: 2 hosts, 5 switches — the smallest legal fat-tree.
  FatTreeOptions opts;
  opts.k = 2;
  Simulator sim;
  Network net(&sim, BuildFatTree(opts), NetworkConfig{});
  ASSERT_EQ(net.num_hosts(), 2);
  FlowManager flows(&net, TransportKind::kDctcp);
  bool done = false;
  flows.StartFlow(0, 1, 50000, TrafficClass::kBackground,
                  [&](const FlowResult&) { done = true; });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(InvariantsTest, TtlOnePacketDiesAtFirstSwitch) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  Packet p;
  p.uid = net.NextPacketUid();
  p.src = 0;
  p.dst = 5;
  p.size_bytes = 100;
  p.ttl = 1;
  p.flow = 1;
  net.host(0).Send(std::move(p));
  sim.Run();
  EXPECT_EQ(net.total_drops(), 1u);
  EXPECT_EQ(net.total_delivered(), 0u);
}

TEST(InvariantsTest, DetourNeverDeliversToWrongHost) {
  // Hosts hard-check that every received packet is addressed to them; this
  // run would abort if a detour ever escaped to a host port.
  NetworkConfig cfg;
  cfg.switch_buffer_packets = 3;
  cfg.detour_policy = "random";
  Simulator sim(31);
  Network net(&sim, BuildPaperFatTree(), cfg);
  for (HostId src = 1; src <= 20; ++src) {
    for (int i = 0; i < 5; ++i) {
      Packet p;
      p.uid = net.NextPacketUid();
      p.src = src;
      p.dst = 0;
      p.size_bytes = 1500;
      p.ttl = 255;
      p.flow = static_cast<FlowId>(src);
      net.host(src).Send(std::move(p));
    }
  }
  sim.Run();
  EXPECT_GT(net.total_detours(), 0u);
}

}  // namespace
}  // namespace dibs
