#include "src/transport/tcp_sender.h"

#include <algorithm>
#include <utility>

#include "src/device/host_node.h"
#include "src/device/network.h"
#include "src/util/logging.h"

namespace dibs {

TcpSender::TcpSender(Network* network, const FlowSpec& spec, const TcpConfig& config,
                     std::function<void()> on_done)
    : network_(network),
      spec_(spec),
      config_(config),
      on_done_(std::move(on_done)),
      total_segments_(SegmentsForBytes(spec.size_bytes)),
      cwnd_(config.init_cwnd_segments),
      ssthresh_(kTcpMaxCwndSegments) {
  const uint64_t full = static_cast<uint64_t>(total_segments_ - 1) * kMaxSegmentBytes;
  last_segment_payload_ =
      spec_.size_bytes > full ? static_cast<uint32_t>(spec_.size_bytes - full) : 0;
  if (last_segment_payload_ == 0) {
    last_segment_payload_ = spec_.size_bytes == 0 ? 0 : kMaxSegmentBytes;
  }
  first_sent_.assign(total_segments_, Time::Zero());
  was_retransmitted_.assign(total_segments_, false);
  dctcp_window_end_ = 0;
}

TcpSender::~TcpSender() { CancelRtoTimer(); }

void TcpSender::Start() {
  TrySend();
}

uint32_t TcpSender::SegmentBytes(uint32_t seq) const {
  const uint32_t payload =
      (seq == total_segments_ - 1) ? last_segment_payload_ : kMaxSegmentBytes;
  return payload + kHeaderBytes;
}

void TcpSender::TrySend() {
  const auto window = static_cast<uint32_t>(cwnd_);
  while (snd_nxt_ < total_segments_ && snd_nxt_ - snd_una_ < std::max<uint32_t>(window, 1)) {
    SendSegment(snd_nxt_, /*is_retransmit=*/false);
    ++snd_nxt_;
  }
  if (rto_timer_ == kInvalidEventId && snd_una_ < snd_nxt_) {
    ArmRtoTimer();
  }
}

void TcpSender::SendSegment(uint32_t seq, bool is_retransmit) {
  Packet p;
  p.uid = network_->NextPacketUid();
  p.src = spec_.src;
  p.dst = spec_.dst;
  p.size_bytes = SegmentBytes(seq);
  p.ttl = network_->config().initial_ttl;
  p.ect = true;
  p.flow = spec_.id;
  p.traffic_class = spec_.traffic_class;
  p.seq = seq;
  p.fin = seq == total_segments_ - 1;
  p.sent_time = network_->sim().Now();
  if (is_retransmit) {
    ++retransmits_;
    was_retransmitted_[seq] = true;
    network_->NotifyTransportEvent(TraceEventType::kTcpRetransmit, spec_.src, spec_.id, seq);
  } else {
    first_sent_[seq] = p.sent_time;
  }
  network_->host(spec_.src).Send(std::move(p));
}

Time TcpSender::current_rto() const {
  Time base = config_.min_rto;
  if (have_rtt_sample_) {
    base = std::max(config_.min_rto, srtt_ + 4 * rttvar_);
  }
  Time backed_off = base;
  for (int i = 0; i < rto_backoff_; ++i) {
    backed_off = backed_off * 2;
    if (backed_off >= kTcpMaxRto) {
      return kTcpMaxRto;
    }
  }
  return std::min(backed_off, kTcpMaxRto);
}

void TcpSender::ArmRtoTimer() {
  CancelRtoTimer();
  const Time rto = current_rto();
  rto_timer_ = network_->sim().Schedule(rto, [this] {
    rto_timer_ = kInvalidEventId;
    OnRtoTimeout();
  });
}

void TcpSender::CancelRtoTimer() {
  if (rto_timer_ != kInvalidEventId) {
    network_->sim().Cancel(rto_timer_);
    rto_timer_ = kInvalidEventId;
  }
}

void TcpSender::OnRtoTimeout() {
  if (done_ || snd_una_ >= total_segments_) {
    return;
  }
  ++timeouts_;
  ++rto_backoff_;
  network_->NotifyTransportEvent(TraceEventType::kTcpTimeout, spec_.src, spec_.id, snd_una_);
  EnterLossRecovery(/*timeout=*/true);
  SendSegment(snd_una_, /*is_retransmit=*/true);
  ArmRtoTimer();
}

void TcpSender::EnterLossRecovery(bool timeout) {
  const double flight = std::max(1.0, static_cast<double>(snd_nxt_ - snd_una_));
  ssthresh_ = std::max(flight / 2.0, 2.0);
  if (timeout) {
    cwnd_ = 1.0;  // data-center TCP convention after a full timeout
  } else {
    cwnd_ = ssthresh_;  // fast retransmit: simplified NewReno (no inflation)
  }
  in_recovery_ = true;
  recover_ = snd_nxt_;
  dupacks_ = 0;
}

void TcpSender::OnAck(Packet&& ack) {
  DIBS_DCHECK(ack.is_ack);
  if (done_) {
    return;
  }
  const uint32_t ack_seq = ack.ack_seq;

  if (ack_seq <= snd_una_) {
    if (ack_seq == snd_una_ && snd_una_ < snd_nxt_) {
      OnDupAck();
    }
    return;
  }

  const uint32_t newly_acked = ack_seq - snd_una_;

  // RTT sample from the highest newly-acked, never-retransmitted segment
  // (Karn's rule).
  for (uint32_t seq = ack_seq; seq-- > snd_una_;) {
    if (!was_retransmitted_[seq]) {
      const Time sample = network_->sim().Now() - first_sent_[seq];
      if (!have_rtt_sample_) {
        srtt_ = sample;
        rttvar_ = sample / 2;
        have_rtt_sample_ = true;
      } else {
        const Time err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
        rttvar_ = Time::Nanos((3 * rttvar_.nanos() + err.nanos()) / 4);
        srtt_ = Time::Nanos((7 * srtt_.nanos() + sample.nanos()) / 8);
      }
      break;
    }
  }

  snd_una_ = ack_seq;
  rto_backoff_ = 0;
  dupacks_ = 0;
  OnNewDataAcked(newly_acked, ack.ece);

  if (snd_una_ >= total_segments_) {
    CancelRtoTimer();
    done_ = true;
    if (on_done_) {
      auto cb = std::move(on_done_);
      on_done_ = nullptr;
      cb();  // may destroy this sender; no member access after the call
    }
    return;
  }

  if (in_recovery_) {
    if (snd_una_ >= recover_) {
      in_recovery_ = false;
    } else {
      // Partial ACK: the next hole is lost too; retransmit it immediately
      // rather than waiting out another RTO (NewReno-style).
      SendSegment(snd_una_, /*is_retransmit=*/true);
    }
  }

  ArmRtoTimer();
  TrySend();
}

void TcpSender::OnNewDataAcked(uint32_t newly_acked, bool ece) {
  if (ece) {
    ++marked_acks_;
  }
  DctcpPerWindowUpdate(newly_acked, ece);

  // Window growth (skipped while recovering from loss).
  if (in_recovery_) {
    return;
  }
  if (cwnd_ < ssthresh_) {
    cwnd_ = std::min(cwnd_ + newly_acked, static_cast<double>(kTcpMaxCwndSegments));
  } else {
    cwnd_ += static_cast<double>(newly_acked) / std::max(cwnd_, 1.0);
    cwnd_ = std::min(cwnd_, static_cast<double>(kTcpMaxCwndSegments));
  }
}

void TcpSender::DctcpPerWindowUpdate(uint32_t newly_acked, bool ece) {
  dctcp_acked_ += newly_acked;
  if (ece) {
    dctcp_marked_ += newly_acked;
  }
  if (snd_una_ <= dctcp_window_end_) {
    return;  // still inside the current observation window
  }
  // One window of data has been ACKed: fold the mark fraction into alpha and
  // apply at most one proportional cut.
  const double frac =
      dctcp_acked_ == 0 ? 0.0
                        : static_cast<double>(dctcp_marked_) / static_cast<double>(dctcp_acked_);
  alpha_ = (1.0 - kDctcpG) * alpha_ + kDctcpG * frac;
  if (dctcp_marked_ > 0 && !in_recovery_) {
    cwnd_ = std::max(cwnd_ * (1.0 - alpha_ / 2.0), 1.0);
    ssthresh_ = std::max(cwnd_, 2.0);
  }
  dctcp_acked_ = 0;
  dctcp_marked_ = 0;
  dctcp_window_end_ = snd_nxt_;
}

void TcpSender::OnDupAck() {
  if (config_.dupack_threshold == 0) {
    return;  // fast retransmit disabled (DIBS host setting, §4)
  }
  ++dupacks_;
  if (dupacks_ != config_.dupack_threshold || in_recovery_) {
    return;
  }
  EnterLossRecovery(/*timeout=*/false);
  SendSegment(snd_una_, /*is_retransmit=*/true);
  ArmRtoTimer();
}

}  // namespace dibs
