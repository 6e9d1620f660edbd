// Minimal pFabric host transport (§5.8).
//
// pFabric moves scheduling into the fabric: packets carry remaining-flow-size
// priorities and switches keep tiny priority queues, so the host transport
// stays primitive — start at (roughly) line rate, keep a fixed window, rely
// on a very small fixed RTO for loss recovery, and drop into a one-packet
// probe mode after repeated timeouts so starved flows keep probing cheaply.

#ifndef SRC_TRANSPORT_PFABRIC_SENDER_H_
#define SRC_TRANSPORT_PFABRIC_SENDER_H_

#include <functional>

#include "src/sim/simulator.h"
#include "src/transport/flow.h"
#include "src/transport/tcp_config.h"

namespace dibs {

class Network;

class PfabricSender {
 public:
  PfabricSender(Network* network, const FlowSpec& spec, const PfabricConfig& config,
                std::function<void()> on_done);
  ~PfabricSender();

  PfabricSender(const PfabricSender&) = delete;
  PfabricSender& operator=(const PfabricSender&) = delete;

  void Start();
  void OnAck(Packet&& ack);

  uint32_t snd_una() const { return snd_una_; }
  uint32_t retransmits() const { return retransmits_; }
  uint32_t timeouts() const { return timeouts_; }
  bool done() const { return done_; }

 private:
  void TrySend();
  void SendSegment(uint32_t seq, bool is_retransmit);
  uint32_t SegmentBytes(uint32_t seq) const;
  int64_t RemainingBytesAt(uint32_t seq) const;
  void ArmRtoTimer();
  void OnRtoTimeout();

  Network* network_;
  FlowSpec spec_;
  PfabricConfig config_;
  std::function<void()> on_done_;

  uint32_t total_segments_;
  uint32_t last_segment_payload_;

  uint32_t snd_una_ = 0;
  uint32_t snd_nxt_ = 0;
  uint32_t window_;
  uint32_t consecutive_timeouts_ = 0;

  EventId rto_timer_ = kInvalidEventId;
  uint32_t retransmits_ = 0;
  uint32_t timeouts_ = 0;
  bool done_ = false;
};

}  // namespace dibs

#endif  // SRC_TRANSPORT_PFABRIC_SENDER_H_
