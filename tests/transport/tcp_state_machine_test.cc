// White-box TcpSender state-machine tests: instead of a full receiver, the
// test captures data packets at the destination host and crafts ACKs by hand,
// exercising window growth, dup-ACK logic, partial-ACK recovery, RTO backoff,
// Karn's rule, and the DCTCP alpha update numerically.

#include "src/transport/tcp_sender.h"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <vector>

#include "src/device/host_node.h"
#include "src/device/network.h"
#include "src/topo/builders.h"

namespace dibs {
namespace {

class SenderHarness {
 public:
  explicit SenderHarness(TcpConfig config, uint64_t flow_bytes = 1000000)
      : sim_(1), net_(&sim_, TwoHostTopology(), NetworkConfig{}) {
    spec_.id = 77;
    spec_.src = 0;
    spec_.dst = 1;
    spec_.size_bytes = flow_bytes;
    spec_.traffic_class = TrafficClass::kQuery;
    spec_.start_time = sim_.Now();
    sender_ = std::make_unique<TcpSender>(&net_, spec_, config, [this] { done_ = true; });
    // Capture data at the destination instead of running a receiver.
    net_.host(1).RegisterFlowReceiver(
        spec_.id, [this](Packet&& p) { received_.push_back(std::move(p)); });
    // Deliver hand-crafted ACKs to the sender.
    net_.host(0).RegisterFlowReceiver(
        spec_.id, [this](Packet&& p) { sender_->OnAck(std::move(p)); });
  }

  // Sends a cumulative ACK from the receiver host through the network.
  void SendAck(uint32_t ack_seq, bool ece = false) {
    Packet ack;
    ack.uid = net_.NextPacketUid();
    ack.src = 1;
    ack.dst = 0;
    ack.size_bytes = kAckBytes;
    ack.ttl = 64;
    ack.flow = spec_.id;
    ack.is_ack = true;
    ack.ack_seq = ack_seq;
    ack.ece = ece;
    net_.host(1).Send(std::move(ack));
    sim_.RunFor(Time::Micros(50));  // let it propagate (26us + slack)
  }

  // Runs until the wire is quiet (all sent data captured).
  void Settle() { sim_.RunFor(Time::Millis(2)); }

  static Topology TwoHostTopology() {
    Topology t;
    const int sw = t.AddNode(NodeKind::kSwitch, "sw");
    for (int i = 0; i < 2; ++i) {
      const int h = t.AddHost("h" + std::to_string(i));
      t.AddLink(h, sw, kGbps, Time::Micros(1));
    }
    return t;
  }

  Simulator sim_;
  Network net_;
  FlowSpec spec_;
  std::unique_ptr<TcpSender> sender_;
  std::deque<Packet> received_;
  bool done_ = false;
};

// The sender with no ECE ever reaching it: the DCTCP update never cuts, so
// these cases exercise the NewReno-style loss arithmetic alone.
TcpConfig NewRenoConfig(uint32_t dupack = 3) {
  TcpConfig c;
  c.dupack_threshold = dupack;
  c.init_cwnd_segments = 4;
  c.min_rto = Time::Millis(10);
  return c;
}

TEST(TcpStateMachine, InitialBurstIsExactlyInitCwnd) {
  SenderHarness h(NewRenoConfig());
  h.sender_->Start();
  h.Settle();
  EXPECT_EQ(h.received_.size(), 4u);
  EXPECT_EQ(h.sender_->snd_nxt(), 4u);
  EXPECT_EQ(h.sender_->snd_una(), 0u);
}

TEST(TcpStateMachine, SlowStartDoublesPerWindow) {
  SenderHarness h(NewRenoConfig());
  h.sender_->Start();
  h.Settle();
  // ACK the full initial window: cwnd 4 -> 8.
  h.SendAck(4);
  EXPECT_DOUBLE_EQ(h.sender_->cwnd(), 8.0);
  h.Settle();
  EXPECT_EQ(h.sender_->snd_nxt(), 12u);  // 4 acked + 8 in flight
}

TEST(TcpStateMachine, DupAcksTriggerFastRetransmitAtThreshold) {
  SenderHarness h(NewRenoConfig(3));
  h.sender_->Start();
  h.Settle();
  const size_t sent_before = h.received_.size();
  h.SendAck(0);  // dup 1 (snd_una stays 0)
  h.SendAck(0);  // dup 2
  EXPECT_EQ(h.sender_->retransmits(), 0u);
  h.SendAck(0);  // dup 3 -> fast retransmit of segment 0
  h.Settle();
  EXPECT_EQ(h.sender_->retransmits(), 1u);
  EXPECT_GT(h.received_.size(), sent_before);
  EXPECT_EQ(h.received_.back().seq, 0u);
}

TEST(TcpStateMachine, DupAcksIgnoredWhenFastRetransmitDisabled) {
  SenderHarness h(NewRenoConfig(/*dupack=*/0));
  h.sender_->Start();
  h.Settle();
  for (int i = 0; i < 20; ++i) {
    h.SendAck(0);
  }
  EXPECT_EQ(h.sender_->retransmits(), 0u);
}

TEST(TcpStateMachine, FastRetransmitHalvesWindowOnce) {
  SenderHarness h(NewRenoConfig(3));
  h.sender_->Start();
  h.Settle();
  h.SendAck(2);  // advance a little; cwnd 4 -> 6, flight = snd_nxt - 2
  h.Settle();
  const double flight = h.sender_->snd_nxt() - 2.0;
  for (int i = 0; i < 3; ++i) {
    h.SendAck(2);
  }
  EXPECT_NEAR(h.sender_->ssthresh(), std::max(flight / 2.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(h.sender_->cwnd(), h.sender_->ssthresh());
  // Further dup ACKs must not halve again.
  const double after = h.sender_->cwnd();
  for (int i = 0; i < 5; ++i) {
    h.SendAck(2);
  }
  EXPECT_DOUBLE_EQ(h.sender_->cwnd(), after);
}

TEST(TcpStateMachine, PartialAckRetransmitsNextHole) {
  SenderHarness h(NewRenoConfig(3));
  h.sender_->Start();
  h.Settle();
  // Enter recovery at snd_una=0.
  for (int i = 0; i < 3; ++i) {
    h.SendAck(0);
  }
  h.Settle();
  const uint32_t retx_before = h.sender_->retransmits();
  // Partial ACK: hole at 0 filled, next hole at 2 (< recovery point).
  h.SendAck(2);
  h.Settle();
  EXPECT_EQ(h.sender_->retransmits(), retx_before + 1);
  EXPECT_EQ(h.received_.back().seq, 2u);
}

TEST(TcpStateMachine, RtoCollapsesWindowToOne) {
  SenderHarness h(NewRenoConfig());
  h.sender_->Start();
  h.Settle();
  // No ACKs at all: RTO fires at minRTO (10ms).
  h.sim_.RunFor(Time::Millis(15));
  EXPECT_EQ(h.sender_->timeouts(), 1u);
  EXPECT_DOUBLE_EQ(h.sender_->cwnd(), 1.0);
  EXPECT_EQ(h.received_.back().seq, 0u);  // retransmitted head
}

TEST(TcpStateMachine, RtoBacksOffExponentially) {
  SenderHarness h(NewRenoConfig());
  h.sender_->Start();
  h.Settle();
  // First RTO ~10ms, second ~20ms, third ~40ms.
  h.sim_.RunFor(Time::Millis(12));
  EXPECT_EQ(h.sender_->timeouts(), 1u);
  h.sim_.RunFor(Time::Millis(15));  // t=27ms: second fired (10+20=30 > 27? allow window)
  h.sim_.RunFor(Time::Millis(10));  // t=37ms
  EXPECT_GE(h.sender_->timeouts(), 2u);
  const Time rto_now = h.sender_->current_rto();
  EXPECT_GE(rto_now, Time::Millis(40));
}

TEST(TcpStateMachine, NewAckResetsBackoff) {
  SenderHarness h(NewRenoConfig());
  h.sender_->Start();
  h.Settle();
  h.sim_.RunFor(Time::Millis(35));  // a couple of timeouts
  EXPECT_GE(h.sender_->timeouts(), 2u);
  h.SendAck(1);
  EXPECT_LE(h.sender_->current_rto(), Time::Millis(10) + Time::Millis(1));
}

TEST(TcpStateMachine, SustainedBlackholeClimbsRtoLadderToCapThenResets) {
  // A real outage, not hand-dropped ACKs: the sender's NIC link goes
  // administratively down (fault model), so every retransmission blackholes
  // and the RTO must walk the full exponential ladder up to kTcpMaxRto.
  SenderHarness h(NewRenoConfig());
  h.sender_->Start();
  h.Settle();
  ASSERT_EQ(h.received_.size(), 4u);  // initial burst arrived before the fault
  h.net_.SetLinkAdminState(0, false);

  // Record current_rto() after each of the first ten timeouts.
  std::vector<Time> ladder;
  uint32_t seen = h.sender_->timeouts();
  while (ladder.size() < 10) {
    ASSERT_LT(h.sim_.Now(), Time::Seconds(10)) << "RTO ladder never climbed";
    h.sim_.RunFor(Time::Millis(2));
    if (h.sender_->timeouts() > seen) {
      seen = h.sender_->timeouts();
      ladder.push_back(h.sender_->current_rto());
    }
  }
  // 10ms doubles per timeout until the 2s cap, then stays pinned there.
  static_assert(kTcpMaxRto == Time::Seconds(2));
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(ladder[i], Time::Millis(20) * (int64_t{1} << i)) << "timeout " << i + 1;
  }
  EXPECT_EQ(ladder[7], kTcpMaxRto);
  EXPECT_EQ(ladder[8], kTcpMaxRto);
  EXPECT_EQ(ladder[9], kTcpMaxRto);
  // Nothing got through during the outage.
  EXPECT_EQ(h.received_.size(), 4u);

  // Repair the link; the first ACK of new data resets the backoff, and
  // Karn's rule keeps the retransmitted segments out of the RTT estimate.
  h.net_.SetLinkAdminState(0, true);
  h.SendAck(1);
  EXPECT_LE(h.sender_->current_rto(), Time::Millis(10) + Time::Millis(1));
}

TEST(TcpStateMachine, CompletionFiresExactlyOnce) {
  SenderHarness h(NewRenoConfig(), /*flow_bytes=*/kMaxSegmentBytes * 3);
  h.sender_->Start();
  h.Settle();
  h.SendAck(3);
  EXPECT_TRUE(h.done_);
  EXPECT_TRUE(h.sender_->done());
  // Stray duplicate/final ACKs after completion are harmless.
  h.SendAck(3);
  h.SendAck(3);
  EXPECT_TRUE(h.sender_->done());
}

TEST(TcpStateMachine, CumulativeAckJumpsMultipleSegments) {
  SenderHarness h(NewRenoConfig());
  h.sender_->Start();
  h.Settle();
  h.SendAck(4);  // covers all four at once
  EXPECT_EQ(h.sender_->snd_una(), 4u);
  EXPECT_DOUBLE_EQ(h.sender_->cwnd(), 8.0);  // slow start credited all 4
}

TcpConfig DctcpCfg() {
  TcpConfig c;
  c.dupack_threshold = 0;
  c.init_cwnd_segments = 4;
  return c;
}

TEST(TcpStateMachine, DctcpAlphaFollowsEwma) {
  SenderHarness h(DctcpCfg());
  h.sender_->Start();
  h.Settle();
  EXPECT_DOUBLE_EQ(h.sender_->dctcp_alpha(), 0.0);
  // Window 1 fully marked: after the window boundary, alpha = g * 1.
  h.SendAck(1, /*ece=*/true);  // crosses dctcp_window_end_ = 0
  EXPECT_NEAR(h.sender_->dctcp_alpha(), kDctcpG, 1e-9);
}

TEST(TcpStateMachine, DctcpUnmarkedWindowDecaysAlpha) {
  SenderHarness h(DctcpCfg());
  h.sender_->Start();
  h.Settle();
  h.SendAck(1, true);  // alpha = g
  const double alpha1 = h.sender_->dctcp_alpha();
  h.Settle();
  // ACK everything outstanding without marks; next window boundary decays.
  const uint32_t nxt = h.sender_->snd_nxt();
  h.SendAck(nxt, false);
  h.Settle();
  h.SendAck(h.sender_->snd_nxt(), false);
  EXPECT_LT(h.sender_->dctcp_alpha(), alpha1);
}

TEST(TcpStateMachine, DctcpCutIsProportionalToAlpha) {
  SenderHarness h(DctcpCfg());
  h.sender_->Start();
  h.Settle();
  const double cwnd_before = h.sender_->cwnd();  // 4
  h.SendAck(1, true);
  // cwnd' ~ (cwnd * (1 - alpha/2)) + growth credit; must be far above
  // the NewReno halving and below cwnd_before + acked.
  const double alpha = h.sender_->dctcp_alpha();
  EXPECT_GT(h.sender_->cwnd(), cwnd_before * (1 - alpha));  // gentle cut
  EXPECT_LE(h.sender_->cwnd(), cwnd_before + 1.0);
}

TEST(TcpStateMachine, KarnsRuleSkipsRetransmittedSegments) {
  SenderHarness h(NewRenoConfig());
  h.sender_->Start();
  h.Settle();
  h.sim_.RunFor(Time::Millis(12));  // RTO: segment 0 retransmitted
  EXPECT_EQ(h.sender_->timeouts(), 1u);
  // ACK only segment 0 (retransmitted): no RTT sample should be taken, so
  // the RTO stays at the configured floor rather than adapting to a bogus
  // 12ms+ sample.
  h.SendAck(1);
  EXPECT_LE(h.sender_->current_rto(), Time::Millis(10) + Time::Millis(1));
}

// Property sweep: for any initial window, the first burst never exceeds it.
class InitWindowSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(InitWindowSweep, FirstBurstBounded) {
  TcpConfig cfg = NewRenoConfig();
  cfg.init_cwnd_segments = GetParam();
  SenderHarness h(cfg);
  h.sender_->Start();
  h.Settle();
  EXPECT_EQ(h.received_.size(), static_cast<size_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Windows, InitWindowSweep, ::testing::Values(1, 2, 4, 10, 16, 64));

}  // namespace
}  // namespace dibs
