// Shared-memory buffer pool with Dynamic Buffer Allocation (§5.5.2).
//
// Production switches such as the Arista 7050QX keep one shallow packet
// memory shared by all ports and partition it dynamically: a port may grow
// its queue as long as it stays under alpha * (free memory). This is the
// classic dynamic-threshold (DT) algorithm of Choudhury & Hahne. DropTail
// queues optionally attach to a pool; when attached, admission consults the
// pool instead of (or in addition to) the static per-port limit.

#ifndef SRC_NET_SHARED_BUFFER_H_
#define SRC_NET_SHARED_BUFFER_H_

#include <cstdint>
#include <string>

#include "src/util/logging.h"
#include "src/util/validation.h"

namespace dibs {

class SharedBufferPool {
 public:
  // `capacity_packets`: total shared memory, in MTU-sized packet slots.
  // `alpha`: dynamic-threshold aggressiveness (1.0 is a common default).
  // `min_reserve_per_port`: guaranteed slots per port so no port deadlocks at
  // zero allocation (§4, "minimum buffer on each port to avoid deadlocks").
  SharedBufferPool(size_t capacity_packets, double alpha = 1.0, size_t min_reserve_per_port = 2)
      : capacity_(capacity_packets), alpha_(alpha), min_reserve_(min_reserve_per_port) {
    DIBS_CHECK_GT(capacity_packets, 0u);
    DIBS_CHECK_GT(alpha, 0.0);
  }

  // True if a queue currently holding `queue_len` packets may admit another
  // packet under the dynamic threshold.
  bool MayAdmit(size_t queue_len) const {
    if (used_ >= capacity_) {
      return false;
    }
    if (queue_len < min_reserve_) {
      return true;
    }
    const double threshold = alpha_ * static_cast<double>(capacity_ - used_);
    return static_cast<double>(queue_len) < threshold;
  }

  void OnEnqueue() {
    if (validate::Enabled() && used_ >= capacity_) {
      validate::Fail("pool.overflow", "shared pool admitted packet " +
                                          std::to_string(used_ + 1) + " of capacity " +
                                          std::to_string(capacity_));
    }
    DIBS_DCHECK(used_ < capacity_);
    ++used_;
  }

  void OnDequeue() {
    if (validate::Enabled() && used_ == 0) {
      validate::Fail("pool.underflow", "shared pool released a packet while empty");
    }
    DIBS_DCHECK(used_ > 0);
    --used_;
  }

  size_t used() const { return used_; }
  size_t capacity() const { return capacity_; }
  size_t free_slots() const { return capacity_ - used_; }
  double alpha() const { return alpha_; }

 private:
  size_t capacity_;
  double alpha_;
  size_t min_reserve_;
  size_t used_ = 0;
};

}  // namespace dibs

#endif  // SRC_NET_SHARED_BUFFER_H_
