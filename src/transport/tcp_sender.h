// Send side of a flow: windowed reliable delivery at segment granularity
// with DCTCP congestion control. Every data segment is ECN-capable; on a
// fabric that never marks, the sender is plain loss-based TCP.
//
// Implemented behaviors (matching the paper's host configuration, §4/§5.3):
//  * slow start + congestion avoidance, initial window 10 (Table 1);
//  * dup-ACK fast retransmit with a configurable threshold, or disabled
//    entirely (the DIBS setting — detour-induced reordering must not trigger
//    spurious retransmissions);
//  * RTO from SRTT/RTTVAR with a minRTO clamp (Table 1: 10ms) and binary
//    exponential backoff; cwnd collapses to 1 on timeout;
//  * NewReno-style partial-ACK retransmission so multi-loss windows recover
//    in one RTT per hole instead of one RTO per hole;
//  * DCTCP: per-window ECN mark fraction -> alpha EWMA -> proportional cut
//    (cwnd *= 1 - alpha/2, at most once per window of data);
//  * Karn's rule: no RTT samples from retransmitted segments.

#ifndef SRC_TRANSPORT_TCP_SENDER_H_
#define SRC_TRANSPORT_TCP_SENDER_H_

#include <functional>
#include <vector>

#include "src/sim/simulator.h"
#include "src/transport/flow.h"
#include "src/transport/tcp_config.h"

namespace dibs {

class Network;

class TcpSender {
 public:
  // `on_done` fires once, when every segment has been cumulatively ACKed.
  TcpSender(Network* network, const FlowSpec& spec, const TcpConfig& config,
            std::function<void()> on_done);
  ~TcpSender();

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  // Opens the window and transmits the initial burst.
  void Start();

  // Handles an arriving (cumulative) ACK.
  void OnAck(Packet&& ack);

  // Introspection for tests and stats.
  double cwnd() const { return cwnd_; }
  double ssthresh() const { return ssthresh_; }
  double dctcp_alpha() const { return alpha_; }
  uint32_t snd_una() const { return snd_una_; }
  uint32_t snd_nxt() const { return snd_nxt_; }
  uint32_t total_segments() const { return total_segments_; }
  uint32_t retransmits() const { return retransmits_; }
  uint32_t timeouts() const { return timeouts_; }
  uint64_t marked_acks() const { return marked_acks_; }
  bool done() const { return done_; }
  Time current_rto() const;

 private:
  void TrySend();
  void SendSegment(uint32_t seq, bool is_retransmit);
  uint32_t SegmentBytes(uint32_t seq) const;

  void ArmRtoTimer();
  void CancelRtoTimer();
  void OnRtoTimeout();

  void OnNewDataAcked(uint32_t newly_acked, bool ece);
  void OnDupAck();
  void DctcpPerWindowUpdate(uint32_t newly_acked, bool ece);
  void EnterLossRecovery(bool timeout);

  Network* network_;
  FlowSpec spec_;
  TcpConfig config_;
  std::function<void()> on_done_;

  uint32_t total_segments_;
  uint32_t last_segment_payload_;

  // Window state (segment granularity).
  uint32_t snd_una_ = 0;
  uint32_t snd_nxt_ = 0;
  double cwnd_;
  double ssthresh_;
  uint32_t dupacks_ = 0;
  uint32_t recover_ = 0;       // NewReno recovery point (snd_nxt at loss)
  bool in_recovery_ = false;

  // RTT estimation.
  bool have_rtt_sample_ = false;
  Time srtt_;
  Time rttvar_;
  int rto_backoff_ = 0;  // exponent, reset on new data ACKed
  EventId rto_timer_ = kInvalidEventId;

  // Per-segment bookkeeping for Karn's rule / RTT sampling.
  std::vector<Time> first_sent_;
  std::vector<bool> was_retransmitted_;

  // DCTCP state.
  double alpha_ = 0.0;
  uint32_t dctcp_window_end_ = 0;  // alpha/backoff updates once per window
  uint64_t dctcp_acked_ = 0;
  uint64_t dctcp_marked_ = 0;

  // Counters.
  uint32_t retransmits_ = 0;
  uint32_t timeouts_ = 0;
  uint64_t marked_acks_ = 0;
  bool done_ = false;
};

}  // namespace dibs

#endif  // SRC_TRANSPORT_TCP_SENDER_H_
