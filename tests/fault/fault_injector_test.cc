// FaultInjector / fault-model integration tests against live Networks:
// downed links drain and blackhole with the right DropReason, the live FIB
// masks dead ports so ECMP re-picks among survivors, crashed switches eat
// packets already on the wire, degraded links lose and jitter packets
// seed-deterministically, and — the headline DIBS interaction — a switch
// whose every switch-facing neighbor crashed DROPS overflow packets instead
// of detouring them into the void.

#include "src/fault/fault_injector.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/device/host_node.h"
#include "src/device/invariant_checker.h"
#include "src/device/network.h"
#include "src/fault/fault_plan.h"
#include "src/harness/config.h"
#include "src/harness/scenario.h"
#include "src/stats/detour_recorder.h"
#include "src/stats/fault_recorder.h"
#include "src/topo/builders.h"
#include "src/util/validation.h"

namespace dibs {
namespace {

// host0 -- sw -- host1; link 0 is h0's NIC link, link 1 is h1's.
Topology TwoHostTopology() {
  Topology t;
  const int sw = t.AddNode(NodeKind::kSwitch, "sw");
  for (int i = 0; i < 2; ++i) {
    const int h = t.AddHost("h" + std::to_string(i));
    t.AddLink(h, sw, kGbps, Time::Micros(1));
  }
  return t;
}

// Two equal-cost paths: h0 - s0 - {s1 | s2} - s3 - h1.
// Links: 0 = h0-s0, 1 = s0-s1, 2 = s0-s2, 3 = s1-s3, 4 = s2-s3, 5 = s3-h1.
// From s0, port 1 faces s1 and port 2 faces s2.
Topology DiamondTopology() {
  Topology t;
  const int s0 = t.AddNode(NodeKind::kSwitch, "s0");
  const int s1 = t.AddNode(NodeKind::kSwitch, "s1");
  const int s2 = t.AddNode(NodeKind::kSwitch, "s2");
  const int s3 = t.AddNode(NodeKind::kSwitch, "s3");
  const int h0 = t.AddHost("h0");
  const int h1 = t.AddHost("h1");
  t.AddLink(h0, s0, kGbps, Time::Micros(1));
  t.AddLink(s0, s1, kGbps, Time::Micros(1));
  t.AddLink(s0, s2, kGbps, Time::Micros(1));
  t.AddLink(s1, s3, kGbps, Time::Micros(1));
  t.AddLink(s2, s3, kGbps, Time::Micros(1));
  t.AddLink(s3, h1, kGbps, Time::Micros(1));
  return t;
}

Packet RawPacket(Network& net, HostId src, HostId dst, FlowId flow = 1) {
  Packet p;
  p.uid = net.NextPacketUid();
  p.src = src;
  p.dst = dst;
  p.size_bytes = 1500;
  p.ttl = 64;
  p.flow = flow;
  p.sent_time = net.sim().Now();
  return p;
}

TEST(FaultModelTest, LinkDownDrainsQueueAndBlackholesThenRecovers) {
  Simulator sim;
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  DetourRecorder rec;
  net.Subscribe(&rec, DetourRecorder::kKinds);

  // 10 back-to-back packets pile up in h0's NIC queue (12us serialization
  // each). At t=30us packets 0-2 have entered the wire; 3-9 are still queued.
  for (int i = 0; i < 10; ++i) {
    net.host(0).Send(RawPacket(net, 0, 1));
  }
  sim.Schedule(Time::Micros(30), [&] { net.SetLinkAdminState(0, false); });
  sim.Run();

  EXPECT_FALSE(net.LinkUp(0));
  EXPECT_EQ(rec.drops(DropReason::kFaultLinkDown), 7u);
  EXPECT_EQ(net.total_delivered(), 3u);

  // While down, new sends are accepted by the host but blackholed at the NIC.
  net.host(0).Send(RawPacket(net, 0, 1));
  sim.Run();
  EXPECT_EQ(rec.drops(DropReason::kFaultLinkDown), 8u);

  // Back up: traffic flows again.
  net.SetLinkAdminState(0, true);
  EXPECT_TRUE(net.LinkUp(0));
  net.host(0).Send(RawPacket(net, 0, 1));
  sim.Run();
  EXPECT_EQ(net.total_delivered(), 4u);
  EXPECT_EQ(net.total_drops(), 8u);
}

TEST(FaultInjectorTest, CompilesPlanIntoScheduledEventsAndRecordsRecovery) {
  Simulator sim;
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  FaultRecorder frec;
  net.Subscribe(&frec, FaultRecorder::kKinds);
  DetourRecorder rec;  // fault drops are counted in the per-reason drop table
  net.Subscribe(&rec, DetourRecorder::kKinds);

  fault::FaultPlan plan;
  plan.LinkDown(0, Time::Micros(30)).LinkUp(0, Time::Micros(60));
  fault::FaultInjector injector(&net, plan, &frec);
  injector.Start();
  EXPECT_EQ(injector.events_scheduled(), 2u);

  for (int i = 0; i < 10; ++i) {
    net.host(0).Send(RawPacket(net, 0, 1));
  }
  // First delivery after the repair closes its recovery window.
  sim.Schedule(Time::Micros(70), [&] { net.host(0).Send(RawPacket(net, 0, 1)); });
  sim.Run();

  EXPECT_EQ(injector.events_applied(), 2u);
  EXPECT_EQ(frec.events_applied(), 1u);   // the breakage
  EXPECT_EQ(frec.events_repaired(), 1u);  // the heal
  EXPECT_TRUE(net.LinkUp(0));
  EXPECT_EQ(rec.fault_drops(), 7u);
  EXPECT_EQ(rec.drops(DropReason::kFaultLinkDown), 7u);
  ASSERT_EQ(frec.recovery_ms().size(), 1u);
  EXPECT_GT(frec.recovery_ms()[0], 0.0);
  EXPECT_LT(frec.recovery_ms()[0], 1.0);  // ~36us repair-to-delivery
  EXPECT_DOUBLE_EQ(frec.MaxRecoveryMs(), frec.recovery_ms()[0]);
}

TEST(FaultModelTest, FibMasksDeadPortsAndEcmpRePicks) {
  Simulator sim;
  Network net(&sim, DiamondTopology(), NetworkConfig{});
  DetourRecorder rec;
  net.Subscribe(&rec, DetourRecorder::kKinds);

  // Two equal-cost uplinks from s0 toward h1.
  ASSERT_EQ(net.fib().NextHopPorts(0, /*dst=*/1).size(), 2u);

  // Kill the s0-s1 path: the live view shrinks to s2's port; the pristine
  // table is untouched.
  net.SetLinkAdminState(1, false);
  ASSERT_EQ(net.fib().NextHopPorts(0, 1).size(), 1u);
  EXPECT_EQ(net.fib().NextHopPorts(0, 1)[0], 2);  // s0's port toward s2
  EXPECT_EQ(net.fib().AllNextHopPorts(0, 1).size(), 2u);

  // Every flow re-picks the surviving path: all packets deliver, zero drops.
  for (FlowId flow = 1; flow <= 8; ++flow) {
    for (int i = 0; i < 5; ++i) {
      net.host(0).Send(RawPacket(net, 0, 1, flow));
    }
  }
  sim.Run();
  EXPECT_EQ(net.total_delivered(), 40u);
  EXPECT_EQ(net.total_drops(), 0u);

  // Restore: the pristine ECMP set comes back in port order.
  net.SetLinkAdminState(1, true);
  EXPECT_EQ(net.fib().NextHopPorts(0, 1), (std::vector<uint16_t>{1, 2}));
}

TEST(FaultModelTest, AllPathsDeadDropsAsFaultNoLiveRoute) {
  Simulator sim;
  Network net(&sim, DiamondTopology(), NetworkConfig{});
  DetourRecorder rec;
  net.Subscribe(&rec, DetourRecorder::kKinds);

  net.SetLinkAdminState(1, false);
  net.SetLinkAdminState(2, false);
  net.host(0).Send(RawPacket(net, 0, 1));
  sim.Run();
  // Routes exist in the pristine topology, so this is a fault drop, not a
  // routing bug.
  EXPECT_EQ(rec.drops(DropReason::kFaultNoLiveRoute), 1u);
  EXPECT_EQ(net.total_delivered(), 0u);
}

TEST(FaultModelTest, CrashedSwitchEatsPacketsAlreadyOnTheWire) {
  // h0 -(1us)- s0 -(20us)- s1 -(1us)- h1: the long middle hop keeps a packet
  // on the wire when s1 crashes under it.
  Topology t;
  const int s0 = t.AddNode(NodeKind::kSwitch, "s0");
  const int s1 = t.AddNode(NodeKind::kSwitch, "s1");
  const int h0 = t.AddHost("h0");
  const int h1 = t.AddHost("h1");
  t.AddLink(h0, s0, kGbps, Time::Micros(1));
  t.AddLink(s0, s1, kGbps, Time::Micros(20));
  t.AddLink(s1, h1, kGbps, Time::Micros(1));

  Simulator sim;
  Network net(&sim, std::move(t), NetworkConfig{});
  DetourRecorder rec;
  net.Subscribe(&rec, DetourRecorder::kKinds);

  // The packet enters the s0->s1 wire at t=25us and would land at t=45us.
  net.host(0).Send(RawPacket(net, 0, 1));
  sim.Schedule(Time::Micros(40), [&] { net.SetSwitchOperational(s1, false); });
  sim.Run();

  EXPECT_FALSE(net.SwitchOperational(s1));
  EXPECT_TRUE(net.SwitchOperational(s0));
  EXPECT_EQ(rec.drops(DropReason::kFaultSwitchDown), 1u);
  EXPECT_EQ(net.total_delivered(), 0u);
  // Every link adjacent to the crashed switch is effectively down.
  EXPECT_FALSE(net.LinkUp(1));
  EXPECT_FALSE(net.LinkUp(2));
  EXPECT_TRUE(net.LinkUp(0));

  // Restart restores the adjacent links and the forwarding path.
  net.SetSwitchOperational(s1, true);
  EXPECT_TRUE(net.LinkUp(1));
  net.host(0).Send(RawPacket(net, 0, 1));
  sim.Run();
  EXPECT_EQ(net.total_delivered(), 1u);
}

// Runs `count` packets across a TwoHost network whose h0 NIC link is degraded,
// returning (delivered, lossy-dropped) for determinism comparisons.
std::pair<uint64_t, uint64_t> RunLossyLink(uint64_t seed, int count, double loss) {
  Simulator sim(seed);
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  DetourRecorder rec;
  net.Subscribe(&rec, DetourRecorder::kKinds);
  net.SetLinkDegraded(0, loss, Time::Zero());
  for (int i = 0; i < count; ++i) {
    net.host(0).Send(RawPacket(net, 0, 1));
  }
  sim.Run();
  return {net.total_delivered(), rec.drops(DropReason::kFaultLossy)};
}

TEST(FaultModelTest, DegradedLinkLossIsBernoulliAndSeedDeterministic) {
  const auto [delivered, lost] = RunLossyLink(/*seed=*/5, /*count=*/200, /*loss=*/0.5);
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(delivered + lost, 200u);
  // Loosely binomial around 100/100 — enough to show the coin is real.
  EXPECT_NEAR(static_cast<double>(lost), 100.0, 35.0);
  // Same seed, same losses, byte for byte.
  EXPECT_EQ(RunLossyLink(5, 200, 0.5), (std::pair<uint64_t, uint64_t>{delivered, lost}));
}

TEST(FaultModelTest, DegradedLinkJitterDelaysWithinBound) {
  auto run = [](uint64_t seed) {
    Simulator sim(seed);
    Network net(&sim, TwoHostTopology(), NetworkConfig{});
    net.SetLinkDegraded(0, /*loss_probability=*/0.0, Time::Micros(10));
    Time delivered;
    net.host(1).RegisterFlowReceiver(1, [&](Packet&&) { delivered = sim.Now(); });
    net.host(0).Send(RawPacket(net, 0, 1));
    sim.Run();
    return delivered;
  };
  const Time at = run(9);
  // Healthy baseline is 26us; jitter adds at most 10us on the degraded hop.
  EXPECT_GE(at, Time::Micros(26));
  EXPECT_LE(at, Time::Micros(36));
  EXPECT_EQ(run(9), at);  // the jitter draw is seeded

  // Restoring the link removes the jitter entirely.
  Simulator sim;
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  net.SetLinkDegraded(0, 0.0, Time::Micros(10));
  net.SetLinkDegraded(0, 0.0, Time::Zero());
  Time clean;
  net.host(1).RegisterFlowReceiver(1, [&](Packet&&) { clean = sim.Now(); });
  net.host(0).Send(RawPacket(net, 0, 1));
  sim.Run();
  EXPECT_EQ(clean, Time::Micros(26));
}

// ---- ISSUE acceptance test ----
// A hot ToR whose EVERY switch-facing neighbor has crashed must DROP overflow
// packets (DropReason::kNoEligibleDetour: switch-facing ports exist but every
// one is down) rather than detour them into dead uplinks; with healthy
// neighbors the identical workload detours heavily.
struct HotTorFixture {
  HotTorFixture() {
    tor = topo.AddNode(NodeKind::kSwitch, "tor");
    const int agg0 = topo.AddNode(NodeKind::kSwitch, "agg0");
    const int agg1 = topo.AddNode(NodeKind::kSwitch, "agg1");
    for (int i = 0; i < 4; ++i) {
      const int h = topo.AddHost("h" + std::to_string(i));
      topo.AddLink(h, tor, kGbps, Time::Micros(1));
    }
    topo.AddLink(tor, agg0, kGbps, Time::Micros(1));
    topo.AddLink(tor, agg1, kGbps, Time::Micros(1));
  }

  // Hosts 1..3 incast host 0 through a 2-packet ToR buffer: the port toward
  // h0 overflows immediately and DIBS must look for detour capacity.
  void Blast(Network& net) {
    for (HostId src = 1; src <= 3; ++src) {
      for (int i = 0; i < 30; ++i) {
        Packet p = RawPacket(net, src, 0, /*flow=*/static_cast<FlowId>(src));
        p.ttl = 20;
        net.host(src).Send(std::move(p));
      }
    }
  }

  NetworkConfig Config() const {
    NetworkConfig cfg;
    cfg.switch_buffer_packets = 2;
    cfg.detour_policy = "random";
    return cfg;
  }

  Topology topo;
  int tor = -1;
};

TEST(FaultDibsInteractionTest, HealthyNeighborsAbsorbDetours) {
  HotTorFixture f;
  Simulator sim(17);
  Network net(&sim, f.topo, f.Config());
  f.Blast(net);
  sim.Run();
  EXPECT_GT(net.total_detours(), 0u);
}

TEST(FaultDibsInteractionTest, AllNeighborsCrashedMeansDropNotDetour) {
  validate::ScopedEnable on;  // the conservation ledger audits the whole run
  HotTorFixture f;
  Simulator sim(17);
  Network net(&sim, f.topo, f.Config());
  ASSERT_NE(net.invariant_checker(), nullptr);
  DetourRecorder rec;
  net.Subscribe(&rec, DetourRecorder::kKinds);

  const std::vector<int> neighbors = f.topo.SwitchNeighborhood(f.tor, 1);
  ASSERT_EQ(neighbors.size(), 2u);
  for (const int agg : neighbors) {
    net.SetSwitchOperational(agg, false);
  }

  f.Blast(net);
  sim.Run();

  // Not one packet was detoured — the policy saw every switch-facing port
  // down and declined — and not one reached a crashed neighbor.
  EXPECT_EQ(net.total_detours(), 0u);
  EXPECT_GT(rec.drops(DropReason::kNoEligibleDetour), 0u);
  EXPECT_EQ(rec.drops(DropReason::kNoDetourAvailable), 0u);
  EXPECT_EQ(rec.drops(DropReason::kFaultSwitchDown), 0u);
  EXPECT_EQ(rec.drops(DropReason::kTtlExpired), 0u);

  // Full accounting: 90 injected, each delivered or dropped, ledger balanced.
  const InvariantChecker& checker = *net.invariant_checker();
  EXPECT_EQ(checker.injected(), 90u);
  EXPECT_EQ(checker.injected(), checker.delivered() + checker.dropped());
  EXPECT_NO_THROW(checker.CheckQuiescent());
  EXPECT_NO_THROW(checker.CheckBalanced(net.TotalBufferedPackets()));
}

// Scenario-level determinism: an end-to-end run with a full fault plan
// (flap + degrade + crash) is reproducible from its seed alone.
TEST(FaultScenarioTest, SameSeedSameFaultsSameResult) {
  auto run = [] {
    ExperimentConfig c = DibsConfig();
    c.topology = TopologyKind::kLinear;
    c.incast_degree = 8;
    c.duration = Time::Millis(60);
    c.seed = 11;
    c.faults.LinkFlap(/*link=*/2, Time::Millis(10), Time::Millis(5), Time::Millis(5), 2)
        .DegradeLink(/*link=*/4, Time::Millis(5), 0.02, Time::Micros(5))
        .RestoreLink(4, Time::Millis(50));
    return RunScenario(c);
  };
  const ScenarioResult a = run();
  const ScenarioResult b = run();
  EXPECT_GT(a.fault_events_applied, 0u);
  EXPECT_EQ(a.qct99_ms, b.qct99_ms);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.drops_by_reason, b.drops_by_reason);
  EXPECT_EQ(a.fault_drops, b.fault_drops);
  EXPECT_EQ(a.fault_flows_stalled, b.fault_flows_stalled);
  EXPECT_EQ(a.fault_flows_recovered, b.fault_flows_recovered);
  EXPECT_EQ(a.fault_recovery_ms_max, b.fault_recovery_ms_max);
  EXPECT_EQ(a.detours, b.detours);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

// FaultRecorder bookkeeping in isolation: fault-touched flows split into
// recovered vs stalled, and a repair's window closes on the next delivery.
TEST(FaultRecorderTest, FlowsSplitIntoRecoveredAndStalled) {
  FaultRecorder rec;
  Packet a;
  a.uid = 1;
  a.flow = 10;
  Packet b;
  b.uid = 2;
  b.flow = 20;
  // Both recorders see the same drops; DetourRecorder counts them.
  DetourRecorder drops;
  const auto drop = [&](const Packet& p, DropReason reason, Time at) {
    const TraceEvent e = MakeTraceDropEvent(at, 0, p, static_cast<uint8_t>(reason));
    rec.OnEvent(e);
    drops.OnEvent(e);
  };
  drop(a, DropReason::kFaultLinkDown, Time::Millis(1));
  drop(b, DropReason::kFaultLossy, Time::Millis(2));
  drop(b, DropReason::kQueueOverflow, Time::Millis(3));  // not a fault
  EXPECT_EQ(drops.fault_drops(), 2u);
  rec.NoteFlowCompleted(10);
  rec.NoteFlowCompleted(99);  // fault-free flow: irrelevant
  EXPECT_EQ(rec.FlowsRecovered(), 1u);  // flow 10
  EXPECT_EQ(rec.FlowsStalled(), 1u);    // flow 20

  rec.OnFaultApplied(Time::Millis(1));
  rec.OnFaultRepaired(Time::Millis(5));
  EXPECT_TRUE(rec.recovery_ms().empty());
  rec.OnEvent(MakeTracePacketEvent(TraceEventType::kHostDeliver, Time::Millis(7), 0, -1, a));
  ASSERT_EQ(rec.recovery_ms().size(), 1u);
  EXPECT_DOUBLE_EQ(rec.recovery_ms()[0], 2.0);
  // Later deliveries do not reopen the closed window.
  rec.OnEvent(MakeTracePacketEvent(TraceEventType::kHostDeliver, Time::Millis(9), 0, -1, a));
  EXPECT_EQ(rec.recovery_ms().size(), 1u);
  EXPECT_DOUBLE_EQ(rec.MaxRecoveryMs(), 2.0);
}

}  // namespace
}  // namespace dibs
