#include "src/transport/pfabric_sender.h"

#include <algorithm>
#include <utility>

#include "src/device/host_node.h"
#include "src/device/network.h"
#include "src/util/logging.h"

namespace dibs {

namespace {
// After this many consecutive timeouts a flow enters probe mode: window 1,
// so a starved flow keeps one low-cost packet in the fabric.
constexpr uint32_t kProbeModeThreshold = 3;
}  // namespace

PfabricSender::PfabricSender(Network* network, const FlowSpec& spec,
                             const PfabricConfig& config, std::function<void()> on_done)
    : network_(network),
      spec_(spec),
      config_(config),
      on_done_(std::move(on_done)),
      total_segments_(SegmentsForBytes(spec.size_bytes)),
      window_(config.window_segments) {
  const uint64_t full = static_cast<uint64_t>(total_segments_ - 1) * kMaxSegmentBytes;
  last_segment_payload_ =
      spec_.size_bytes > full ? static_cast<uint32_t>(spec_.size_bytes - full) : 0;
  if (last_segment_payload_ == 0) {
    last_segment_payload_ = spec_.size_bytes == 0 ? 0 : kMaxSegmentBytes;
  }
}

PfabricSender::~PfabricSender() {
  if (rto_timer_ != kInvalidEventId) {
    network_->sim().Cancel(rto_timer_);
  }
}

void PfabricSender::Start() { TrySend(); }

uint32_t PfabricSender::SegmentBytes(uint32_t seq) const {
  const uint32_t payload =
      (seq == total_segments_ - 1) ? last_segment_payload_ : kMaxSegmentBytes;
  return payload + kHeaderBytes;
}

int64_t PfabricSender::RemainingBytesAt(uint32_t seq) const {
  // Remaining flow size when this segment goes out — the pFabric priority.
  return static_cast<int64_t>(total_segments_ - seq) * kMaxSegmentBytes;
}

void PfabricSender::TrySend() {
  const uint32_t effective_window =
      consecutive_timeouts_ >= kProbeModeThreshold ? 1 : window_;
  while (snd_nxt_ < total_segments_ && snd_nxt_ - snd_una_ < effective_window) {
    SendSegment(snd_nxt_, /*is_retransmit=*/false);
    ++snd_nxt_;
  }
  if (rto_timer_ == kInvalidEventId && snd_una_ < snd_nxt_) {
    ArmRtoTimer();
  }
}

void PfabricSender::SendSegment(uint32_t seq, bool is_retransmit) {
  Packet p;
  p.uid = network_->NextPacketUid();
  p.src = spec_.src;
  p.dst = spec_.dst;
  p.size_bytes = SegmentBytes(seq);
  p.ttl = network_->config().initial_ttl;
  p.ect = false;  // pFabric does not use ECN
  p.flow = spec_.id;
  p.traffic_class = spec_.traffic_class;
  p.seq = seq;
  p.fin = seq == total_segments_ - 1;
  p.priority = RemainingBytesAt(seq);
  p.sent_time = network_->sim().Now();
  if (is_retransmit) {
    ++retransmits_;
    network_->NotifyTransportEvent(TraceEventType::kTcpRetransmit, spec_.src, spec_.id, seq);
  }
  network_->host(spec_.src).Send(std::move(p));
}

void PfabricSender::ArmRtoTimer() {
  if (rto_timer_ != kInvalidEventId) {
    network_->sim().Cancel(rto_timer_);
  }
  Time rto = config_.rto;
  for (uint32_t i = 0; i < consecutive_timeouts_ && rto < config_.max_rto; ++i) {
    rto = rto * 2;
  }
  rto = std::min(rto, config_.max_rto);
  rto_timer_ = network_->sim().Schedule(rto, [this] {
    rto_timer_ = kInvalidEventId;
    OnRtoTimeout();
  });
}

void PfabricSender::OnRtoTimeout() {
  if (done_ || snd_una_ >= total_segments_) {
    return;
  }
  ++timeouts_;
  ++consecutive_timeouts_;
  network_->NotifyTransportEvent(TraceEventType::kTcpTimeout, spec_.src, spec_.id, snd_una_);
  SendSegment(snd_una_, /*is_retransmit=*/true);
  ArmRtoTimer();
}

void PfabricSender::OnAck(Packet&& ack) {
  DIBS_DCHECK(ack.is_ack);
  if (done_ || ack.ack_seq <= snd_una_) {
    return;
  }
  snd_una_ = ack.ack_seq;
  consecutive_timeouts_ = 0;

  if (snd_una_ >= total_segments_) {
    if (rto_timer_ != kInvalidEventId) {
      network_->sim().Cancel(rto_timer_);
      rto_timer_ = kInvalidEventId;
    }
    done_ = true;
    if (on_done_) {
      auto cb = std::move(on_done_);
      on_done_ = nullptr;
      cb();  // may destroy this sender
    }
    return;
  }
  ArmRtoTimer();
  TrySend();
}

}  // namespace dibs
