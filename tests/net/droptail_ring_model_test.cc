// Model test for DropTailQueue's ring buffer: random enqueues and dequeues,
// checked after every step against a std::deque of packet uids. The depth
// steps up one packet at a time and dwells at each level long enough for the
// head to go round the ring, so every growth unrolls a wrapped ring. Runs
// with validation on, so every operation also walks the ring in
// CheckConsistent.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/net/droptail_queue.h"
#include "src/net/shared_buffer.h"
#include "src/util/rng.h"
#include "src/util/validation.h"

namespace dibs {
namespace {

uint32_t SizeOf(uint64_t uid) { return 40 + static_cast<uint32_t>(uid * 37 % 1461); }
bool EctOf(uint64_t uid) { return uid % 3 != 0; }

class RingModel {
 public:
  RingModel(size_t capacity, size_t mark_threshold, SharedBufferPool* pool, uint64_t seed)
      : queue_(capacity, mark_threshold, pool),
        capacity_(capacity),
        mark_threshold_(mark_threshold),
        pool_(pool),
        rng_(seed) {}

  // Steps the depth up to `max_level`, dwelling at each level.
  void Run(size_t max_level) {
    for (size_t level = 1; level <= max_level && !testing::Test::HasFailure(); ++level) {
      // Climb to the level, with some dequeues mixed in.
      for (int guard = 0; model_.size() < level && guard < 1000; ++guard) {
        if (rng_.Bernoulli(0.75)) {
          if (!Enqueue()) {
            break;  // refused: the queue is at its limit
          }
        } else {
          Dequeue();
        }
        Check();
      }
      // Dwell around the level: about 2 * (level + 8) dequeues, more than
      // the ring has slots, so the head wraps before the next growth.
      for (size_t i = 0; i < 4 * (level + 8); ++i) {
        if (model_.size() >= level || (model_.size() + 2 >= level && rng_.Bernoulli(0.5))) {
          Dequeue();
        } else {
          Enqueue();
        }
        Check();
      }
    }
    while (!model_.empty() && !testing::Test::HasFailure()) {
      Dequeue();
      Check();
    }
    EXPECT_FALSE(queue_.Dequeue().has_value());
  }

  uint64_t refused() const { return refused_; }

 private:
  bool Admits() const {
    if (pool_ != nullptr) {
      return pool_->MayAdmit(model_.size());
    }
    return capacity_ == 0 || model_.size() < capacity_;
  }

  bool Enqueue() {
    const uint64_t uid = next_uid_++;
    Packet p;
    p.uid = uid;
    p.size_bytes = SizeOf(uid);
    p.ect = EctOf(uid);
    const bool admits = Admits();
    const bool marks = mark_threshold_ != 0 && model_.size() >= mark_threshold_ && p.ect;
    EXPECT_EQ(queue_.IsFull(p), !admits);
    EXPECT_EQ(queue_.Enqueue(std::move(p)), admits);
    if (!admits) {
      ++refused_;
      return false;
    }
    model_.push_back(uid);
    marked_.resize(uid + 1);
    marked_[uid] = marks;
    bytes_ += SizeOf(uid);
    return true;
  }

  void Dequeue() {
    std::optional<Packet> p = queue_.Dequeue();
    if (model_.empty()) {
      EXPECT_FALSE(p.has_value());
      return;
    }
    ASSERT_TRUE(p.has_value());
    const uint64_t uid = model_.front();
    model_.pop_front();
    bytes_ -= SizeOf(uid);
    ASSERT_EQ(p->uid, uid) << "out of FIFO order";
    EXPECT_EQ(p->size_bytes, SizeOf(uid));
    EXPECT_EQ(p->ect, EctOf(uid));
    EXPECT_EQ(p->ce, marked_[uid]) << "CE mark of uid " << uid;
  }

  void Check() {
    ASSERT_EQ(queue_.size_packets(), model_.size());
    ASSERT_EQ(queue_.size_bytes(), bytes_);
    if (pool_ != nullptr) {
      ASSERT_EQ(pool_->used(), model_.size());
    }
  }

  DropTailQueue queue_;
  size_t capacity_;
  size_t mark_threshold_;
  SharedBufferPool* pool_;
  Rng rng_;
  std::deque<uint64_t> model_;  // buffered uids, head first
  std::vector<bool> marked_;    // uid -> CE expected
  int64_t bytes_ = 0;
  uint64_t next_uid_ = 1;
  uint64_t refused_ = 0;
};

struct RingCase {
  size_t capacity;
  size_t mark_threshold;
  size_t max_level;  // past the capacity, so a bounded queue refuses
};

void PrintTo(const RingCase& c, std::ostream* os) {
  *os << "capacity " << c.capacity << ", mark at " << c.mark_threshold << ", up to "
      << c.max_level;
}

class DropTailRingModel : public ::testing::TestWithParam<RingCase> {};

TEST_P(DropTailRingModel, MatchesTheReference) {
  validate::ScopedEnable on;
  const RingCase c = GetParam();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    RingModel model(c.capacity, c.mark_threshold, nullptr, seed);
    model.Run(c.max_level);
    EXPECT_EQ(model.refused() > 0, c.capacity != 0);
  }
}

// Unbounded grows 8 -> 16 -> 32 -> 64 -> 128; capacity 1 and 5 stay inside
// the first ring; capacity 100 grows to exactly 100.
INSTANTIATE_TEST_SUITE_P(Capacities, DropTailRingModel,
                         ::testing::Values(RingCase{0, 20, 70}, RingCase{1, 1, 3},
                                           RingCase{5, 3, 8}, RingCase{100, 20, 110}),
                         [](const ::testing::TestParamInfo<RingCase>& info) {
                           return "capacity" + std::to_string(info.param.capacity);
                         });

TEST(DropTailRingModelTest, SharedPoolQueueGrowsAsTheDynamicThresholdAllows) {
  validate::ScopedEnable on;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    // One queue alone admits while its length is under 200 - length: up to
    // 100 packets, so its ring grows to 128 slots.
    SharedBufferPool pool(/*capacity_packets=*/200, /*alpha=*/1.0);
    RingModel model(/*capacity=*/0, /*mark_threshold=*/20, &pool, seed);
    model.Run(/*max_level=*/110);
    EXPECT_GT(model.refused(), 0u);
  }
}

}  // namespace
}  // namespace dibs
