// pFabric priority queue (§5.8).
//
// pFabric keeps very shallow per-port buffers (24 packets) sorted by flow
// priority, where priority is the sender-stamped remaining flow size (lower
// value = more urgent). On overflow a switch drops the *lowest*-priority
// buffered packet to make room for a higher-priority arrival. Dequeue picks
// the highest-priority flow present but transmits that flow's earliest
// buffered segment, which preserves in-flow ordering despite the per-packet
// priority decreasing over a flow's lifetime (Alizadeh et al., SIGCOMM'13).

#ifndef SRC_NET_PFABRIC_QUEUE_H_
#define SRC_NET_PFABRIC_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/net/packet_debug.h"
#include "src/net/queue.h"
#include "src/util/logging.h"
#include "src/util/validation.h"

namespace dibs {

class PfabricQueue : public Queue {
 public:
  // Invoked with each packet the queue destroys on overflow — either the
  // arriving packet (it lost the priority comparison) or the lowest-priority
  // buffered packet it evicted to make room. pFabric losses never reach the
  // switch's drop path, so this is the only place a conservation ledger can
  // learn about them.
  using EvictionHandler = std::function<void(Packet&&)>;

  explicit PfabricQueue(size_t capacity_packets = 24) : capacity_(capacity_packets) {}

  void SetEvictionHandler(EvictionHandler handler) { on_evict_ = std::move(handler); }

  // pFabric never refuses admission outright: a full queue still accepts a
  // packet that beats the worst buffered one. DIBS is not used with pFabric,
  // so IsFull only reports whether Enqueue may need to evict.
  bool IsFull(const Packet& p) const override {
    if (packets_.size() < capacity_) {
      return false;
    }
    // Full: admission succeeds only by eviction; report "full" for a packet
    // that would lose to every buffered packet.
    const size_t worst = LowestPriorityIndex();
    return p.priority >= packets_[worst].pkt.priority;
  }

  bool Enqueue(Packet&& p) override {
    if (packets_.size() < capacity_) {
      Push(std::move(p));
      return true;
    }
    const size_t worst = LowestPriorityIndex();
    if (p.priority >= packets_[worst].pkt.priority) {
      ++evictions_;  // arriving packet is the loser
      if (on_evict_) {
        on_evict_(std::move(p));
      }
      return false;
    }
    bytes_ -= packets_[worst].pkt.size_bytes;
    Packet evicted = std::move(packets_[worst].pkt);
    packets_.erase(packets_.begin() + static_cast<ptrdiff_t>(worst));
    ++evictions_;
    Push(std::move(p));
    if (on_evict_) {
      on_evict_(std::move(evicted));
    }
    return true;
  }

  std::optional<Packet> Dequeue() override {
    if (packets_.empty()) {
      return std::nullopt;
    }
    // Find the highest-priority packet, then transmit the earliest buffered
    // segment of that packet's flow.
    size_t best = 0;
    for (size_t i = 1; i < packets_.size(); ++i) {
      if (packets_[i].pkt.priority < packets_[best].pkt.priority ||
          (packets_[i].pkt.priority == packets_[best].pkt.priority &&
           packets_[i].arrival < packets_[best].arrival)) {
        best = i;
      }
    }
    const FlowId flow = packets_[best].pkt.flow;
    size_t pick = best;
    for (size_t i = 0; i < packets_.size(); ++i) {
      if (packets_[i].pkt.flow == flow && packets_[i].arrival < packets_[pick].arrival) {
        pick = i;
      }
    }
    if (validate::Enabled()) {
      CheckDequeueChoice(pick);
    }
    Packet out = std::move(packets_[pick].pkt);
    packets_.erase(packets_.begin() + static_cast<ptrdiff_t>(pick));
    bytes_ -= out.size_bytes;
    if (validate::Enabled()) {
      CheckConsistent(&out);
    }
    return out;
  }

  size_t size_packets() const override { return packets_.size(); }
  int64_t size_bytes() const override { return bytes_; }
  size_t capacity_packets() const override { return capacity_; }

  uint64_t evictions() const { return evictions_; }

  // Fault injection for the DIBS_VALIDATE test suite (see DropTailQueue).
  void TestOnlyCorruptBytes(int64_t delta) { bytes_ += delta; }

 private:
  struct Entry {
    Packet pkt;
    uint64_t arrival = 0;  // monotone enqueue counter for FIFO tie-breaking
  };

  size_t LowestPriorityIndex() const {
    DIBS_DCHECK(!packets_.empty());
    size_t worst = 0;
    for (size_t i = 1; i < packets_.size(); ++i) {
      if (packets_[i].pkt.priority > packets_[worst].pkt.priority ||
          (packets_[i].pkt.priority == packets_[worst].pkt.priority &&
           packets_[i].arrival > packets_[worst].arrival)) {
        worst = i;
      }
    }
    return worst;
  }

  void Push(Packet&& p) {
    bytes_ += p.size_bytes;
    packets_.push_back(Entry{std::move(p), next_arrival_++});
    if (validate::Enabled()) {
      CheckConsistent(&packets_.back().pkt);
    }
  }

  // DIBS_VALIDATE: byte counter must match the buffered sum and the shallow
  // pFabric buffer must never exceed its capacity (eviction keeps it exact).
  void CheckConsistent(const Packet* touched) const {
    int64_t actual = 0;
    for (const Entry& e : packets_) {
      actual += e.pkt.size_bytes;
    }
    if (actual != bytes_) {
      std::ostringstream os;
      os << "pFabric queue byte counter " << bytes_ << "B != buffered sum " << actual
         << "B over " << packets_.size() << " packets; last touched "
         << (touched != nullptr ? DescribePacket(*touched) : std::string("<none>"));
      validate::Fail("queue.bytes", os.str());
    }
    if (capacity_ != 0 && packets_.size() > capacity_) {
      std::ostringstream os;
      os << "pFabric queue holds " << packets_.size() << " packets > capacity " << capacity_;
      validate::Fail("queue.occupancy", os.str());
    }
  }

  // DIBS_VALIDATE: the pFabric dequeue rule — transmit the earliest buffered
  // segment of the flow holding the highest-priority (lowest value) packet.
  // Re-derives both properties independently of the selection loop above.
  void CheckDequeueChoice(size_t pick) const {
    const Entry& chosen = packets_[pick];
    int64_t global_best = chosen.pkt.priority;
    int64_t flow_best = chosen.pkt.priority;
    for (const Entry& e : packets_) {
      global_best = std::min(global_best, e.pkt.priority);
      if (e.pkt.flow == chosen.pkt.flow) {
        flow_best = std::min(flow_best, e.pkt.priority);
        if (e.arrival < chosen.arrival) {
          std::ostringstream os;
          os << "pFabric dequeued " << DescribePacket(chosen.pkt)
             << " ahead of an earlier segment of the same flow ("
             << DescribePacket(e.pkt) << "): in-flow FIFO order violated";
          validate::Fail("pfabric.flow-order", os.str());
        }
      }
    }
    if (flow_best > global_best) {
      std::ostringstream os;
      os << "pFabric dequeued flow " << chosen.pkt.flow << " (best priority " << flow_best
         << ") while a higher-priority packet (priority " << global_best
         << ") of another flow is buffered; chosen " << DescribePacket(chosen.pkt);
      validate::Fail("pfabric.priority-order", os.str());
    }
  }

  size_t capacity_;
  std::vector<Entry> packets_;
  int64_t bytes_ = 0;
  uint64_t next_arrival_ = 0;
  uint64_t evictions_ = 0;
  EvictionHandler on_evict_;
};

}  // namespace dibs

#endif  // SRC_NET_PFABRIC_QUEUE_H_
