// Detour policies choose among candidates the switch has already filtered.
// The choice is tested on candidate lists; which ports are candidates is
// SwitchNode's call alone (§2: switch-facing, up, unpaused, with room), so
// eligibility is tested by installing each policy in a switch (Star below).

#include "src/core/detour_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/device/network.h"
#include "src/device/switch_node.h"
#include "src/topo/builders.h"
#include "src/trace/trace_sink.h"

namespace dibs {
namespace {

// Candidates on ports 2, 3, ... with the given queue lengths.
std::vector<DetourCandidate> Candidates(const std::vector<size_t>& queue_lens) {
  std::vector<DetourCandidate> candidates;
  uint16_t port = 2;
  for (size_t len : queue_lens) {
    candidates.push_back({port++, len});
  }
  return candidates;
}

TEST(RandomDetourTest, CoversAllEligiblePorts) {
  const auto candidates = Candidates({10, 10, 10, 10});
  Rng rng(11);
  std::set<uint16_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(ChooseDetourPort(DetourPolicy::kRandom, candidates, rng));
  }
  EXPECT_EQ(seen, (std::set<uint16_t>{2, 3, 4, 5}));
}

TEST(RandomDetourTest, RoughlyUniform) {
  const auto candidates = Candidates({10, 10, 10, 10});
  Rng rng(13);
  std::map<uint16_t, int> counts;
  const int n = 8000;
  for (int i = 0; i < n; ++i) {
    ++counts[ChooseDetourPort(DetourPolicy::kRandom, candidates, rng)];
  }
  for (const auto& [port, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / n, 0.25, 0.03);
  }
}

TEST(LoadAwareDetourTest, PicksShortestQueue) {
  const auto candidates = Candidates({50, 5});  // port 3 is clearly the emptiest
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ChooseDetourPort(DetourPolicy::kLoadAware, candidates, rng), 3);
  }
}

TEST(LoadAwareDetourTest, BreaksTiesRandomly) {
  const auto candidates = Candidates({10, 10, 10});
  Rng rng(17);
  std::set<uint16_t> seen;
  for (int i = 0; i < 300; ++i) {
    seen.insert(ChooseDetourPort(DetourPolicy::kLoadAware, candidates, rng));
  }
  EXPECT_GT(seen.size(), 1u);
}

// A star: switch node 0 with host 0 on port 0 (the destination), host 1 on
// port 1, and one-port switches on ports 2..7, each port holding 4 packets.
// The simulator never runs: tests fill queues by enqueueing on ports, then
// hand packets to HandleReceive directly, so every detour decision sees
// exactly the port state the test set up.
class Star : public TraceSink {
 public:
  explicit Star(const std::string& policy) {
    Topology topo;
    const int center = topo.AddNode(NodeKind::kSwitch, "center");
    for (int h = 0; h < 2; ++h) {
      topo.AddLink(center, topo.AddHost("h" + std::to_string(h)), kGbps, kDefaultLinkDelay);
    }
    for (int n = 0; n < 6; ++n) {
      const int neighbor = topo.AddNode(NodeKind::kSwitch, "n" + std::to_string(n));
      topo.AddLink(center, neighbor, kGbps, kDefaultLinkDelay);
    }
    NetworkConfig cfg;
    cfg.switch_buffer_packets = 4;
    cfg.detour_policy = policy;
    net_ = std::make_unique<Network>(&sim_, std::move(topo), cfg);
    net_->Subscribe(this, TraceKinds({TraceEventType::kDetour, TraceEventType::kDrop}));
  }

  void OnEvent(const TraceEvent& e) override {
    if (e.type == TraceEventType::kDetour) {
      detour_ports.push_back(static_cast<uint16_t>(e.port));
    } else {
      drops.push_back(static_cast<DropReason>(e.drop_reason));
    }
  }

  SwitchNode& center() { return net_->switch_at(0); }
  Rng& rng() { return net_->sim().rng(); }
  // The one-port switch on `port` of the center.
  SwitchNode& neighbor(uint16_t port) {
    return net_->switch_at(net_->topology().ports(0)[port].neighbor);
  }

  // Fault model: takes down the link on `port` of the center.
  void Down(uint16_t port) {
    net_->SetLinkAdminState(net_->topology().ports(0)[port].link, false);
  }
  // Flow control: XOFFs the transmitter on `port` of the center.
  void Pause(uint16_t port) { center().SetPortPaused(port, true); }

  // Enqueues on `port` of `sw` until `queued` packets wait behind the one on
  // the wire.
  void Load(SwitchNode& sw, uint16_t port, size_t queued) {
    while (sw.port(port).queue().size_packets() < queued) {
      sw.port(port).EnqueueAndTransmit(MakePacket(/*flow=*/1));
    }
  }
  void Fill(SwitchNode& sw, uint16_t port) {
    while (!sw.port(port).queue().IsFull(Packet())) {
      sw.port(port).EnqueueAndTransmit(MakePacket(/*flow=*/1));
    }
  }
  void Fill(std::initializer_list<uint16_t> ports) {
    for (uint16_t port : ports) {
      Fill(center(), port);
    }
  }

  // A packet for host 0 arriving at `sw` on `in_port`.
  void Receive(SwitchNode& sw, uint16_t in_port, FlowId flow = 1) {
    sw.HandleReceive(MakePacket(flow), in_port);
  }
  // Hands the center packets on `in_port`, one flow each, until one is
  // dropped: every detour takes a candidate's room, so the candidates fill.
  void ReceiveUntilDrop(uint16_t in_port) {
    for (FlowId flow = 1; drops.empty(); ++flow) {
      if (flow == 100) {
        ADD_FAILURE() << "the candidates never filled";
        return;
      }
      Receive(center(), in_port, flow);
    }
  }

  std::vector<uint16_t> detour_ports;
  std::vector<DropReason> drops;

 private:
  Packet MakePacket(FlowId flow) {
    Packet p;
    p.uid = net_->NextPacketUid();
    p.src = 1;
    p.dst = 0;
    p.size_bytes = 1500;
    p.ttl = 64;
    p.flow = flow;
    return p;
  }

  Simulator sim_{7};
  std::unique_ptr<Network> net_;
};

TEST(RandomDetourTest, NeverPicksDesiredHostOrFullPorts) {
  Star star("random");
  star.Fill({0, 3, 5});  // the desired port and two switch-facing ports
  star.ReceiveUntilDrop(/*in_port=*/2);
  ASSERT_FALSE(star.detour_ports.empty());
  for (uint16_t port : star.detour_ports) {
    EXPECT_NE(port, 0);  // desired
    EXPECT_NE(port, 1);  // host-facing
    EXPECT_NE(port, 3);  // full
    EXPECT_NE(port, 5);  // full
  }
}

TEST(RandomDetourTest, DropsWhenAllEligibleFull) {
  Star star("random");
  star.Fill({0, 2, 3, 4, 5, 6, 7});
  star.Receive(star.center(), /*in_port=*/2);
  EXPECT_TRUE(star.detour_ports.empty());
  EXPECT_EQ(star.drops, std::vector<DropReason>{DropReason::kNoDetourAvailable});
}

TEST(RandomDetourTest, InputPortIsEligible) {
  // Only the input port (2) has room: packets may bounce straight back.
  Star star("random");
  star.Fill({0, 3, 4, 5, 6, 7});
  star.Receive(star.center(), /*in_port=*/2);
  EXPECT_EQ(star.detour_ports, std::vector<uint16_t>{2});
  EXPECT_TRUE(star.drops.empty());
}

TEST(RandomDetourTest, NeverPicksDownPorts) {
  Star star("random");
  star.Fill({0});
  for (uint16_t port : {2, 4, 6}) {
    star.Down(port);
  }
  star.ReceiveUntilDrop(/*in_port=*/3);
  ASSERT_FALSE(star.detour_ports.empty());
  for (uint16_t port : star.detour_ports) {
    EXPECT_TRUE(port == 3 || port == 5 || port == 7) << "detoured out of port " << port;
  }
  EXPECT_EQ(star.drops, std::vector<DropReason>{DropReason::kNoDetourAvailable});
}

TEST(RandomDetourTest, NeverPicksPausedPorts) {
  Star star("random");
  star.Fill({0});
  star.Pause(3);
  star.ReceiveUntilDrop(/*in_port=*/2);
  ASSERT_FALSE(star.detour_ports.empty());
  for (uint16_t port : star.detour_ports) {
    EXPECT_NE(port, 3);
  }
  EXPECT_EQ(star.drops, std::vector<DropReason>{DropReason::kNoDetourAvailable});
}

TEST(RandomDetourTest, DropsWhenEveryEligiblePortIsDownOrPaused) {
  Star star("random");
  star.Fill({0});
  star.Down(2);
  star.Pause(3);
  for (uint16_t port : {4, 5, 6, 7}) {
    star.Down(port);
  }
  star.Receive(star.center(), /*in_port=*/2);
  EXPECT_TRUE(star.detour_ports.empty());
  EXPECT_EQ(star.drops, std::vector<DropReason>{DropReason::kNoEligibleDetour});
}

TEST(LoadAwareDetourTest, ShortestQueueLosesToLiveness) {
  // Port 2 is the emptiest but dead; of the live ports with room, 3 holds
  // one packet and 4 two.
  Star star("load-aware");
  star.Fill({0, 5, 6, 7});
  star.Down(2);
  star.Load(star.center(), 3, 1);
  star.Load(star.center(), 4, 2);
  star.Receive(star.center(), /*in_port=*/4);
  EXPECT_EQ(star.detour_ports, std::vector<uint16_t>{3});
}

// Every policy name: the name lookup and the policy installed in a switch.
class PolicyFactorySweep : public ::testing::TestWithParam<std::string> {
 protected:
  bool dibs() const { return GetParam() != "none"; }
  // What a packet the full desired queue refuses is dropped as: with DIBS
  // off every such drop is a plain queue overflow.
  DropReason Drop(DropReason with_dibs) const {
    return dibs() ? with_dibs : DropReason::kQueueOverflow;
  }
};

TEST_P(PolicyFactorySweep, FactoryProducesNamedPolicy) {
  const std::map<std::string, DetourPolicy> named = {{"none", DetourPolicy::kNone},
                                                     {"random", DetourPolicy::kRandom},
                                                     {"load-aware", DetourPolicy::kLoadAware}};
  EXPECT_EQ(DetourPolicyFromName(GetParam()), named.at(GetParam()));
  EXPECT_EQ(DetourPolicyFromName(GetParam() + " "), std::nullopt);
}

// §2: a packet detours only when its desired queue is full. One packet
// short of full, the desired queue takes it, and no policy draws.
TEST_P(PolicyFactorySweep, DesiredQueueWithRoomTakesThePacket) {
  Star star(GetParam());
  star.Load(star.center(), 0, 3);
  const Queue& desired = star.center().port(0).queue();
  ASSERT_FALSE(desired.IsFull(Packet()));
  Rng before = star.rng();
  star.Receive(star.center(), /*in_port=*/2);
  EXPECT_EQ(desired.size_packets(), 4u);
  EXPECT_TRUE(star.detour_ports.empty());
  EXPECT_TRUE(star.drops.empty());
  EXPECT_EQ(star.rng().NextUint64(), before.NextUint64());
}

TEST_P(PolicyFactorySweep, AllPoliciesRespectEligibility) {
  {
    // Port 2 is the input port; 3 is full, 5 down, 6 paused; 4 and 7 are
    // live with room. Detours fill 2, 4 and 7 until none has room.
    Star star(GetParam());
    star.Fill({0, 3});
    star.Down(5);
    star.Pause(6);
    star.ReceiveUntilDrop(/*in_port=*/2);
    for (uint16_t port : star.detour_ports) {
      EXPECT_TRUE(port == 2 || port == 4 || port == 7) << "detoured out of port " << port;
    }
    EXPECT_EQ(std::count(star.detour_ports.begin(), star.detour_ports.end(), 2) != 0, dibs())
        << "the input port is a candidate";
    EXPECT_EQ(star.drops, std::vector<DropReason>{Drop(DropReason::kNoDetourAvailable)});
  }
  {
    // Every other switch-facing port is down or paused: nothing to borrow.
    Star star(GetParam());
    star.Fill({0});
    for (uint16_t port : {2, 3, 4}) {
      star.Down(port);
    }
    for (uint16_t port : {5, 6, 7}) {
      star.Pause(port);
    }
    star.Receive(star.center(), /*in_port=*/2);
    EXPECT_TRUE(star.detour_ports.empty());
    EXPECT_EQ(star.drops, std::vector<DropReason>{Drop(DropReason::kNoEligibleDetour)});
  }
  {
    // A one-port switch has nowhere to detour.
    Star star(GetParam());
    SwitchNode& edge = star.neighbor(2);
    star.Fill(edge, 0);
    star.Receive(edge, /*in_port=*/0);
    EXPECT_EQ(star.drops, std::vector<DropReason>{DropReason::kQueueOverflow});
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyFactorySweep,
                         ::testing::Values("none", "random", "load-aware"));

}  // namespace
}  // namespace dibs
