// FIFO drop-tail queue with optional DCTCP-style ECN marking and optional
// shared-buffer (DBA) attachment.
//
// This is the paper's default switch queue: a fixed per-port packet budget
// (Table 1: 100 packets) with a marking threshold K (§5.3: 20 packets). When
// the instantaneous queue length at enqueue time is >= K, ECN-capable packets
// are CE-marked — exactly the DCTCP AQM. capacity_packets == 0 makes the
// queue unbounded (the "InfiniteBuf" baseline of Figure 6); attaching a
// SharedBufferPool replaces the static limit with a dynamic threshold.
//
// Packets sit by value in a ring buffer that starts at 8 slots and doubles
// when full, so a steady-state enqueue or dequeue allocates nothing. A
// statically bounded queue never grows its ring past its capacity; an
// unbounded or pool-managed queue grows as far as it must. Rings are not
// preallocated to capacity: most switch ports never come close to it.

#ifndef SRC_NET_DROPTAIL_QUEUE_H_
#define SRC_NET_DROPTAIL_QUEUE_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "src/net/packet.h"
#include "src/net/packet_debug.h"
#include "src/net/queue.h"
#include "src/net/shared_buffer.h"
#include "src/util/validation.h"

namespace dibs {

class DropTailQueue : public Queue {
 public:
  // `capacity_packets`: 0 = unbounded. `mark_threshold_packets`: 0 disables
  // ECN marking. `pool`: optional shared-memory pool (not owned; may be null).
  DropTailQueue(size_t capacity_packets, size_t mark_threshold_packets = 0,
                SharedBufferPool* pool = nullptr)
      : capacity_(capacity_packets), mark_threshold_(mark_threshold_packets), pool_(pool) {}

  bool IsFull(const Packet& p) const override {
    if (pool_ != nullptr) {
      return !pool_->MayAdmit(count_);
    }
    return capacity_ != 0 && count_ >= capacity_;
  }

  bool Enqueue(Packet&& p) override {
    if (IsFull(p)) {
      return false;
    }
    if (mark_threshold_ != 0 && count_ >= mark_threshold_ && p.ect) {
      p.ce = true;
    }
    bytes_ += p.size_bytes;
    if (count_ == ring_.size()) {
      Grow();
    }
    // Constructed in place, not assigned: GCC then writes the packet's fields
    // straight into the slot. For an assignment it built a stack temporary
    // and copied it with 16-byte loads, which stall on the narrower stores
    // that had just filled it in.
    Packet& tail = *std::construct_at(&ring_[Wrap(head_ + count_)], std::move(p));
    ++count_;
    if (pool_ != nullptr) {
      pool_->OnEnqueue();
    }
    if (validate::Enabled()) {
      CheckConsistent(&tail);
    }
    return true;
  }

  std::optional<Packet> Dequeue() override {
    if (count_ == 0) {
      return std::nullopt;
    }
    std::optional<Packet> p(std::move(ring_[head_]));
    head_ = Wrap(head_ + 1);
    --count_;
    bytes_ -= p->size_bytes;
    if (pool_ != nullptr) {
      pool_->OnDequeue();
    }
    if (validate::Enabled()) {
      CheckConsistent(&*p);
    }
    return p;
  }

  size_t size_packets() const override { return count_; }
  int64_t size_bytes() const override { return bytes_; }
  size_t capacity_packets() const override { return capacity_; }

  size_t mark_threshold() const { return mark_threshold_; }

  // Fault injection for the DIBS_VALIDATE test suite: skews the running byte
  // counter so the next validated operation trips the queue.bytes invariant.
  void TestOnlyCorruptBytes(int64_t delta) { bytes_ += delta; }

 private:
  // DIBS_VALIDATE: the running byte counter must equal the sum of buffered
  // packet sizes, and a statically-bounded queue must never exceed capacity.
  // `touched` is the packet involved in the triggering operation, included in
  // the diagnostic.
  void CheckConsistent(const Packet* touched) const {
    int64_t actual = 0;
    for (size_t i = 0; i < count_; ++i) {
      actual += ring_[Wrap(head_ + i)].size_bytes;
    }
    if (actual != bytes_) {
      std::ostringstream os;
      os << "drop-tail queue byte counter " << bytes_ << "B != buffered sum " << actual
         << "B over " << count_ << " packets; last touched "
         << (touched != nullptr ? DescribePacket(*touched) : std::string("<none>"));
      validate::Fail("queue.bytes", os.str());
    }
    if (pool_ == nullptr && capacity_ != 0 && count_ > capacity_) {
      std::ostringstream os;
      os << "drop-tail queue holds " << count_ << " packets > capacity "
         << capacity_ << "; last touched "
         << (touched != nullptr ? DescribePacket(*touched) : std::string("<none>"));
      validate::Fail("queue.occupancy", os.str());
    }
  }

  static constexpr size_t kInitialSlots = 8;

  // Ring index of logical position `i` (< 2 * ring size) from slot 0.
  size_t Wrap(size_t i) const { return i < ring_.size() ? i : i - ring_.size(); }

  // Doubles the ring (clamped to a static capacity), unrolling the packets
  // to start at slot 0.
  void Grow() {
    size_t slots = ring_.empty() ? kInitialSlots : 2 * ring_.size();
    if (pool_ == nullptr && capacity_ != 0) {
      slots = std::min(slots, capacity_);
    }
    std::vector<Packet> grown(slots);
    for (size_t i = 0; i < count_; ++i) {
      grown[i] = std::move(ring_[Wrap(head_ + i)]);
    }
    ring_ = std::move(grown);
    head_ = 0;
  }

  size_t capacity_;
  size_t mark_threshold_;
  SharedBufferPool* pool_;
  std::vector<Packet> ring_;  // slots; packets occupy count_ of them from head_
  size_t head_ = 0;
  size_t count_ = 0;
  int64_t bytes_ = 0;
};

}  // namespace dibs

#endif  // SRC_NET_DROPTAIL_QUEUE_H_
