#include "src/device/port.h"

#include <optional>
#include <utility>

#include "src/device/network.h"
#include "src/net/packet_debug.h"
#include "src/util/logging.h"
#include "src/util/validation.h"

namespace dibs {

Port::Port(Network* network, Node* owner, uint16_t index, std::unique_ptr<Queue> queue,
           int64_t rate_bps, Time prop_delay)
    : network_(network),
      sim_(&network->sim()),
      owner_(owner),
      index_(index),
      queue_(std::move(queue)),
      rate_bps_(rate_bps),
      prop_delay_(prop_delay) {}

bool Port::EnqueueAndTransmit(Packet&& p) {
  if (!link_up_) {
    // Blackhole: the port owns the packet's terminal state. Returning true
    // tells the caller the port took responsibility — the drop has already
    // been accounted.
    network_->NotifyDrop(owner_->id(), p, DropReason::kFaultLinkDown);
    return true;
  }
  p.enqueued_at = sim_->Now();
  // The packet is gone after Enqueue (moved, possibly destroyed by a pFabric
  // eviction), so snapshot the event first — but only when some sink wants
  // it, so the hot path never copies packet fields for nobody.
  std::optional<TraceEvent> ev;
  if (network_->Wants(TraceEventType::kEnqueue)) {
    ev.emplace(MakeTracePacketEvent(TraceEventType::kEnqueue, sim_->Now(), owner_->id(),
                                    index_, p));
  }
  if (!queue_->Enqueue(std::move(p))) {
    return false;
  }
  // Dispatched before MaybeTransmit, as kDequeue is dispatched before
  // bytes_sent_ grows: FabricMonitor samples on these two events, and reads
  // only transmissions strictly before the event's instant.
  if (ev.has_value()) {
    ev->queue_depth = static_cast<int32_t>(queue_->size_packets());
    network_->Dispatch(*ev);
  }
  MaybeTransmit();
  return true;
}

void Port::SetPaused(bool paused) {
  if (paused_ != paused) {
    paused_ = paused;
    const TraceEventType edge = paused ? TraceEventType::kPause : TraceEventType::kUnpause;
    if (network_->Wants(edge)) {
      TraceEvent ev;
      ev.at = sim_->Now();
      ev.type = edge;
      ev.node = owner_->id();
      ev.port = index_;
      network_->Dispatch(ev);
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
  // reaches its terminal state as a fault drop, and the owner hears the
  // dequeue so flow-control watermarks re-evaluate.
  while (true) {
    std::optional<Packet> dead = queue_->Dequeue();
    if (!dead.has_value()) {
      break;
    }
    owner_->OnPortDequeue(index_);
    network_->NotifyDequeue(owner_->id(), index_, *dead, queue_->size_packets());
    network_->NotifyDrop(owner_->id(), *dead, DropReason::kFaultLinkDown);
  }
}

void Port::MaybeTransmit() {
  // Note: deliberately no link_up_ guard here. SetLinkUp(false) drains the
  // queue and EnqueueAndTransmit blackholes while down, so a correct device
  // never has anything to transmit on a dead link; if a bug does push one
  // through, DIBS_VALIDATE's dead-port-delivery invariant trips below.
  if (transmitting_ || paused_) {
    return;
  }
  std::optional<Packet> next = queue_->Dequeue();
  if (!next.has_value()) {
    return;
  }
  DIBS_CHECK(peer_ != nullptr) << "port transmitted before Connect()";
  owner_->OnPortDequeue(index_);
  // Before bytes_sent_ grows; see EnqueueAndTransmit.
  network_->NotifyDequeue(owner_->id(), index_, *next, queue_->size_packets());
  transmitting_ = true;
  const Time serialization = SerializationDelay(next->size_bytes, rate_bps_);
  bytes_sent_ += next->size_bytes;
  ++packets_sent_;

  // Transmitter frees up after serialization; the packet lands at the peer
  // one propagation delay later. Two events so back-to-back packets pipeline
  // onto the wire correctly.
  sim_->Schedule(serialization, [this] { OnTxDone(); });

  if (!link_up_ && validate::Enabled()) {
    validate::Fail("ledger.dead-port-delivery",
                   "a port transmitted a packet while its link was down — down ports "
                   "must drain or blackhole, never deliver; " +
                       DescribePacket(*next));
  }
  // The packet is "on the wire" from here until the peer takes it (or a
  // lossy link kills it); the conservation ledger tracks that window.
  if (network_->Wants(TraceEventType::kWireEnter)) {
    network_->Dispatch(MakeTracePacketEvent(TraceEventType::kWireEnter, sim_->Now(),
                                            owner_->id(), index_, *next));
  }

  // Degraded link: the frame may be corrupted in flight. The wire slot is
  // still consumed (the serialization event above stands), but the packet
  // never lands — it dies here as a fault-lossy terminal drop.
  if (loss_probability_ > 0 && sim_->rng().Bernoulli(loss_probability_)) {
    network_->NotifyDrop(owner_->id(), *next, DropReason::kFaultLossy);
    return;
  }
  Time prop = prop_delay_;
  if (extra_jitter_ > Time::Zero()) {
    prop = prop + Time::Nanos(sim_->rng().UniformInt(0, extra_jitter_.nanos()));
  }
  // The packet waits in the wire slab; the closure carries only its slot, so
  // it fits std::function's inline buffer and the hop allocates nothing.
  uint32_t slot;
  if (wire_free_.empty()) {
    slot = static_cast<uint32_t>(wire_.size());
    wire_.push_back(std::move(*next));
  } else {
    slot = wire_free_.back();
    wire_free_.pop_back();
    wire_[slot] = std::move(*next);
  }
  sim_->Schedule(serialization + prop, [this, slot] { DeliverWire(slot); });
}

void Port::OnTxDone() {
  transmitting_ = false;
  MaybeTransmit();
}

void Port::DeliverWire(uint32_t slot) {
  // Out of the slab before the peer runs: its handling may transmit on this
  // port again, which can reuse the slot or grow the slab.
  Packet pkt = std::move(wire_[slot]);
  wire_free_.push_back(slot);
  if (network_->Wants(TraceEventType::kWireExit)) {
    network_->Dispatch(MakeTracePacketEvent(TraceEventType::kWireExit, sim_->Now(),
                                            peer_->id(), peer_port_, pkt));
  }
  peer_->HandleReceive(std::move(pkt), peer_port_);
}

}  // namespace dibs
