// Receive side of a flow: tracks which segments have arrived, sends one
// cumulative ACK per arriving data packet, and echoes CE marks back to the
// sender (per-packet ECN echo — a simplification of DCTCP's delayed-ACK echo
// state machine that is exact when every packet is ACKed, as here).

#ifndef SRC_TRANSPORT_TCP_RECEIVER_H_
#define SRC_TRANSPORT_TCP_RECEIVER_H_

#include <vector>

#include "src/transport/flow.h"

namespace dibs {

class Network;

class TcpReceiver {
 public:
  // `on_complete` fires exactly once, when the last missing segment arrives.
  TcpReceiver(Network* network, const FlowSpec& spec, FlowCompletionCallback on_complete);

  TcpReceiver(const TcpReceiver&) = delete;
  TcpReceiver& operator=(const TcpReceiver&) = delete;

  // Handles one arriving data packet (duplicates are re-ACKed, not recounted).
  void OnData(Packet&& p);

  bool complete() const { return complete_; }
  uint32_t segments_received() const { return segments_received_; }

 private:
  void SendAck(bool ce_echo);

  Network* network_;
  FlowSpec spec_;
  FlowCompletionCallback on_complete_;

  uint32_t total_segments_;
  std::vector<bool> received_;
  uint32_t next_expected_ = 0;  // cumulative: first segment not yet received
  uint32_t segments_received_ = 0;
  bool complete_ = false;
  FlowResult result_;
};

}  // namespace dibs

#endif  // SRC_TRANSPORT_TCP_RECEIVER_H_
