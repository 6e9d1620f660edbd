// Output port: a queue plus a transmitter feeding one direction of a link.
//
// Each topology link becomes two Ports (one per endpoint). A port serializes
// the packet at the link rate, then delivers it to the peer node after the
// propagation delay. The transmitter is work-conserving: it immediately pulls
// the next packet when serialization of the previous one completes. Packets
// in flight wait in a per-port slab, so scheduling a delivery allocates
// nothing once the slab has grown to the link's bandwidth-delay product.

#ifndef SRC_DEVICE_PORT_H_
#define SRC_DEVICE_PORT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/device/node.h"
#include "src/net/drop_reason.h"
#include "src/net/queue.h"
#include "src/sim/simulator.h"

namespace dibs {

class Network;

class Port {
 public:
  // `network` owns the port's node: the port reports its enqueue, dequeue,
  // wire and pause events and its fault drops there.
  Port(Network* network, Node* owner, uint16_t index, std::unique_ptr<Queue> queue,
       int64_t rate_bps, Time prop_delay);

  // Wires the receive side; must be called before any traffic flows.
  void Connect(Node* peer, uint16_t peer_port, bool peer_is_switch) {
    peer_ = peer;
    peer_port_ = peer_port;
    peer_is_switch_ = peer_is_switch;
  }

  // Admits `p` to the queue (caller has already checked IsFull / decided to
  // drop) and kicks the transmitter. Returns false if the queue refused.
  bool EnqueueAndTransmit(Packet&& p);

  Queue& queue() { return *queue_; }
  const Queue& queue() const { return *queue_; }

  uint16_t index() const { return index_; }
  Node* peer() const { return peer_; }
  uint16_t peer_port() const { return peer_port_; }
  bool peer_is_switch() const { return peer_is_switch_; }
  int64_t rate_bps() const { return rate_bps_; }
  Time prop_delay() const { return prop_delay_; }

  // Ethernet flow control: while paused the transmitter holds its queue
  // (a packet already on the wire is not recalled). Unpausing kicks the
  // transmitter immediately.
  void SetPaused(bool paused);
  bool paused() const { return paused_; }

  // Fault model (src/fault). Taking the link down drains the queue — every
  // buffered packet dies as a DropReason::kFaultLinkDown drop, a terminal
  // state the conservation ledger accepts — and blackholes future
  // EnqueueAndTransmit calls the same way. As with pause, a packet already
  // on the wire is not recalled: it lands at the peer (which drops it if
  // that peer is a crashed switch). Bringing the link back up kicks the
  // transmitter. Idempotent.
  void SetLinkUp(bool up);
  bool link_up() const { return link_up_; }

  // Degraded-link mode: each transmitted packet is lost with
  // `loss_probability` (counted as DropReason::kFaultLossy; the wire slot is
  // still consumed, like a corrupted frame), and survivors see up to
  // `extra_jitter` of additional, RNG-drawn propagation delay. Pass (0, 0)
  // to restore the link. Draws come from the simulator RNG, so the fault
  // schedule stays seed-deterministic.
  void SetDegraded(double loss_probability, Time extra_jitter) {
    loss_probability_ = loss_probability;
    extra_jitter_ = extra_jitter;
  }
  bool degraded() const { return loss_probability_ > 0 || extra_jitter_ > Time::Zero(); }

  // Cumulative transmit counters, sampled by FabricMonitor.
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t packets_sent() const { return packets_sent_; }

 private:
  void MaybeTransmit();

  // Serialization of the head packet finished: the transmitter frees up.
  void OnTxDone();

  // Wire-delivery event body: hands the packet in wire slab slot `slot` to
  // the peer node and frees the slot.
  void DeliverWire(uint32_t slot);

  Network* network_;
  Simulator* sim_;
  Node* owner_;
  uint16_t index_;
  std::unique_ptr<Queue> queue_;
  int64_t rate_bps_;
  Time prop_delay_;

  Node* peer_ = nullptr;
  uint16_t peer_port_ = 0;
  bool peer_is_switch_ = false;

  bool transmitting_ = false;
  bool paused_ = false;
  bool link_up_ = true;
  double loss_probability_ = 0;
  Time extra_jitter_;
  // Packets on the wire, each waiting for its delivery event. Slots are
  // recycled through wire_free_; this is not a FIFO, because extra_jitter_
  // can reorder deliveries.
  std::vector<Packet> wire_;
  std::vector<uint32_t> wire_free_;
  uint64_t bytes_sent_ = 0;
  uint64_t packets_sent_ = 0;
};

}  // namespace dibs

#endif  // SRC_DEVICE_PORT_H_
