#include "src/transport/tcp_receiver.h"

#include <utility>

#include "src/device/host_node.h"
#include "src/device/network.h"
#include "src/util/logging.h"

namespace dibs {

TcpReceiver::TcpReceiver(Network* network, const FlowSpec& spec,
                         FlowCompletionCallback on_complete)
    : network_(network),
      spec_(spec),
      on_complete_(std::move(on_complete)),
      total_segments_(SegmentsForBytes(spec.size_bytes)),
      received_(total_segments_, false) {
  result_.spec = spec_;
}

void TcpReceiver::OnData(Packet&& p) {
  DIBS_DCHECK(!p.is_ack);
  DIBS_DCHECK(p.flow == spec_.id);
  const uint32_t seq = p.seq;
  DIBS_CHECK_LT(seq, total_segments_);

  if (received_[seq]) {
    // Re-ACK so a sender whose ACK was lost still makes progress.
    SendAck(p.ce);
    return;
  }
  received_[seq] = true;
  ++segments_received_;
  while (next_expected_ < total_segments_ && received_[next_expected_]) {
    ++next_expected_;
  }
  SendAck(p.ce);

  if (!complete_ && segments_received_ == total_segments_) {
    complete_ = true;
    result_.completion_time = network_->sim().Now();
    result_.fct = result_.completion_time - spec_.start_time;
    if (on_complete_) {
      // The callback may tear this receiver down; call it last.
      FlowCompletionCallback cb = std::move(on_complete_);
      on_complete_ = nullptr;
      cb(result_);
    }
  }
}

void TcpReceiver::SendAck(bool ce_echo) {
  Packet ack;
  ack.uid = network_->NextPacketUid();
  ack.src = spec_.dst;
  ack.dst = spec_.src;
  ack.size_bytes = kAckBytes;
  ack.ttl = network_->config().initial_ttl;
  ack.flow = spec_.id;
  ack.traffic_class = spec_.traffic_class;
  ack.is_ack = true;
  ack.ack_seq = next_expected_;
  ack.ece = ce_echo;
  ack.sent_time = network_->sim().Now();
  network_->host(spec_.dst).Send(std::move(ack));
}

}  // namespace dibs
