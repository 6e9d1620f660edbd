// Queue discipline interface for output ports.
//
// A Queue decides admission (drop/accept, possibly ECN-marking on enqueue)
// and dequeue order. The switch asks IsFull() *before* attempting Enqueue so
// that DIBS can detour instead of dropping: per the paper (§2), detouring
// triggers exactly when the desired output queue cannot accept the packet.

#ifndef SRC_NET_QUEUE_H_
#define SRC_NET_QUEUE_H_

#include <cstdint>
#include <optional>

#include "src/net/packet.h"

namespace dibs {

class Queue {
 public:
  virtual ~Queue() = default;

  // True if `p` would be refused right now. DIBS consults this to decide
  // whether to detour; the switch never calls Enqueue when IsFull is true.
  virtual bool IsFull(const Packet& p) const = 0;

  // Admits the packet (may set its CE mark). Returns false on drop.
  virtual bool Enqueue(Packet&& p) = 0;

  // Removes the next packet to transmit, or nullopt when empty.
  virtual std::optional<Packet> Dequeue() = 0;

  virtual size_t size_packets() const = 0;
  virtual int64_t size_bytes() const = 0;

  // Static per-port capacity in packets; 0 means unbounded (or pool-managed).
  virtual size_t capacity_packets() const = 0;

  bool empty() const { return size_packets() == 0; }
};

}  // namespace dibs

#endif  // SRC_NET_QUEUE_H_
