#include "src/device/port.h"

#include <optional>
#include <utility>

#include "src/device/invariant_checker.h"
#include "src/device/network.h"
#include "src/util/logging.h"

namespace dibs {

bool Port::EnqueueAndTransmit(Packet&& p) {
  if (!link_up_) {
    // Blackhole: the port owns the packet's terminal state. Returning true
    // tells the caller the port took responsibility — the drop has already
    // been accounted through the fault handler.
    if (fault_drop_) {
      fault_drop_(std::move(p), DropReason::kFaultLinkDown);
    }
    return true;
  }
  p.enqueued_at = sim_->Now();
  // The packet is gone after Enqueue (moved, possibly destroyed by a pFabric
  // eviction), so snapshot the trace event first — but only when a bus is
  // armed, so the untraced hot path never copies packet fields.
  std::optional<TraceEvent> ev;
  if (network_ != nullptr && network_->TraceArmed()) {
    ev.emplace(MakeTracePacketEvent(TraceEventType::kEnqueue, sim_->Now(), owner_->id(),
                                    index_, p));
  }
  if (!queue_->Enqueue(std::move(p))) {
    return false;
  }
  if (network_ != nullptr) {
    const size_t depth = queue_->size_packets();
    network_->NotifyEnqueue(owner_->id(), index_, depth);
    if (ev.has_value()) {
      ev->queue_depth = static_cast<int32_t>(depth);
      network_->EmitTrace(*ev);
    }
  }
  MaybeTransmit();
  return true;
}

void Port::SetPaused(bool paused) {
  if (paused_ != paused) {
    paused_ = paused;
    if (network_ != nullptr && network_->TraceArmed()) {
      TraceEvent ev;
      ev.at = sim_->Now();
      ev.type = paused ? TraceEventType::kPause : TraceEventType::kUnpause;
      ev.node = owner_->id();
      ev.port = index_;
      network_->EmitTrace(ev);
    }
  }
  if (!paused_) {
    MaybeTransmit();
  }
}

void Port::SetLinkUp(bool up) {
  if (link_up_ == up) {
    return;
  }
  link_up_ = up;
  if (up) {
    MaybeTransmit();
    return;
  }
  // Link died: everything buffered behind it is lost. Each drained packet
  // reaches its terminal state through the fault handler, and the owner hears
  // the dequeue so flow-control watermarks re-evaluate.
  while (true) {
    std::optional<Packet> dead = queue_->Dequeue();
    if (!dead.has_value()) {
      break;
    }
    owner_->OnPortDequeue(index_);
    if (network_ != nullptr) {
      network_->NotifyDequeue(owner_->id(), index_, *dead, queue_->size_packets());
    }
    if (fault_drop_) {
      fault_drop_(std::move(*dead), DropReason::kFaultLinkDown);
    }
  }
}

void Port::MaybeTransmit() {
  // Note: deliberately no link_up_ guard here. SetLinkUp(false) drains the
  // queue and EnqueueAndTransmit blackholes while down, so a correct device
  // never has anything to transmit on a dead link; if a bug does push one
  // through, the conservation ledger's dead-port-delivery invariant trips.
  if (transmitting_ || paused_) {
    return;
  }
  std::optional<Packet> next = queue_->Dequeue();
  if (!next.has_value()) {
    return;
  }
  DIBS_CHECK(peer_ != nullptr) << "port transmitted before Connect()";
  owner_->OnPortDequeue(index_);
  const bool traced = network_ != nullptr && network_->TraceArmed();
  if (network_ != nullptr) {
    network_->NotifyDequeue(owner_->id(), index_, *next, queue_->size_packets());
  }
  transmitting_ = true;
  const Time serialization = SerializationDelay(next->size_bytes, rate_bps_);
  bytes_sent_ += next->size_bytes;
  ++packets_sent_;

  // Transmitter frees up after serialization; the packet lands at the peer
  // one propagation delay later. Two events so back-to-back packets pipeline
  // onto the wire correctly.
  sim_->Schedule(serialization, [this] { OnTxDone(); });

  if (traced) {
    network_->EmitTrace(MakeTracePacketEvent(TraceEventType::kWireEnter, sim_->Now(),
                                             owner_->id(), index_, *next));
  }

  // Degraded link: the frame may be corrupted in flight. The wire slot is
  // still consumed (the serialization event above stands), but the packet
  // never lands — it dies here as a fault-lossy terminal drop.
  if (loss_probability_ > 0 && sim_->rng().Bernoulli(loss_probability_)) {
    if (fault_drop_) {
      fault_drop_(std::move(*next), DropReason::kFaultLossy);
    }
    return;
  }
  Time prop = prop_delay_;
  if (extra_jitter_ > Time::Zero()) {
    prop = prop + Time::Nanos(sim_->rng().UniformInt(0, extra_jitter_.nanos()));
  }

  // The packet is "on the wire" from the moment it left the queue until the
  // peer takes it; the conservation ledger tracks that window (and flags a
  // transmission through a down link as a dead-port delivery).
  if (checker_ != nullptr) {
    checker_->OnWireEnter(*next, link_up_);
  }
  sim_->Schedule(serialization + prop, [this, pkt = std::move(*next), traced]() mutable {
    DeliverWire(std::move(pkt), traced);
  });
}

void Port::OnTxDone() {
  transmitting_ = false;
  MaybeTransmit();
}

void Port::DeliverWire(Packet&& pkt, bool traced) {
  if (checker_ != nullptr) {
    checker_->OnWireExit(pkt);
  }
  if (traced && network_ != nullptr) {
    network_->EmitTrace(MakeTracePacketEvent(TraceEventType::kWireExit, sim_->Now(),
                                             peer_->id(), peer_port_, pkt));
  }
  peer_->HandleReceive(std::move(pkt), peer_port_);
}

}  // namespace dibs
