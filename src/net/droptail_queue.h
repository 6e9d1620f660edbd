// FIFO drop-tail queue with optional DCTCP-style ECN marking and optional
// shared-buffer (DBA) attachment.
//
// This is the paper's default switch queue: a fixed per-port packet budget
// (Table 1: 100 packets) with a marking threshold K (§5.3: 20 packets). When
// the instantaneous queue length at enqueue time is >= K, ECN-capable packets
// are CE-marked — exactly the DCTCP AQM. capacity_packets == 0 makes the
// queue unbounded (the "InfiniteBuf" baseline of Figure 6); attaching a
// SharedBufferPool replaces the static limit with a dynamic threshold.

#ifndef SRC_NET_DROPTAIL_QUEUE_H_
#define SRC_NET_DROPTAIL_QUEUE_H_

#include <deque>
#include <optional>
#include <sstream>

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
      return !pool_->MayAdmit(packets_.size());
    }
    return capacity_ != 0 && packets_.size() >= capacity_;
  }

  bool Enqueue(Packet&& p) override {
    if (IsFull(p)) {
      return false;
    }
    if (mark_threshold_ != 0 && packets_.size() >= mark_threshold_ && p.ect) {
      p.ce = true;
    }
    bytes_ += p.size_bytes;
    packets_.push_back(std::move(p));
    if (pool_ != nullptr) {
      pool_->OnEnqueue();
    }
    if (validate::Enabled()) {
      CheckConsistent(&packets_.back());
    }
    return true;
  }

  std::optional<Packet> Dequeue() override {
    if (packets_.empty()) {
      return std::nullopt;
    }
    Packet p = std::move(packets_.front());
    packets_.pop_front();
    bytes_ -= p.size_bytes;
    if (pool_ != nullptr) {
      pool_->OnDequeue();
    }
    if (validate::Enabled()) {
      CheckConsistent(&p);
    }
    return p;
  }

  size_t size_packets() const override { return packets_.size(); }
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
    for (const Packet& q : packets_) {
      actual += q.size_bytes;
    }
    if (actual != bytes_) {
      std::ostringstream os;
      os << "drop-tail queue byte counter " << bytes_ << "B != buffered sum " << actual
         << "B over " << packets_.size() << " packets; last touched "
         << (touched != nullptr ? DescribePacket(*touched) : std::string("<none>"));
      validate::Fail("queue.bytes", os.str());
    }
    if (pool_ == nullptr && capacity_ != 0 && packets_.size() > capacity_) {
      std::ostringstream os;
      os << "drop-tail queue holds " << packets_.size() << " packets > capacity "
         << capacity_ << "; last touched "
         << (touched != nullptr ? DescribePacket(*touched) : std::string("<none>"));
      validate::Fail("queue.occupancy", os.str());
    }
  }

  size_t capacity_;
  size_t mark_threshold_;
  SharedBufferPool* pool_;
  std::deque<Packet> packets_;
  int64_t bytes_ = 0;
};

}  // namespace dibs

#endif  // SRC_NET_DROPTAIL_QUEUE_H_
