// Model test for the simulator's event queue: fixed-seed random sequences of
// schedule, cancel and run operations, checked after every step against a
// reference std::set of (when, schedule sequence) pairs — the order the
// queue must fire in.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace dibs {
namespace {

constexpr uint64_t kPollEvery = 5;
constexpr int kSeeds = 24;
constexpr int kSteps = 300;

// One Simulator plus a reference model of its queue, driven by the same
// seeded operation stream. Closures capture `this`, so a model never moves.
class QueueModel {
 public:
  explicit QueueModel(uint64_t seed) : rng_(seed) { InstallPolling(); }

  QueueModel(const QueueModel&) = delete;
  QueueModel& operator=(const QueueModel&) = delete;

  // One random top-level operation, then a full comparison.
  void Step() {
    const int64_t op = rng_.UniformInt(0, 19);
    if (op < 7) {
      ScheduleOne();
    } else if (op < 11) {
      CancelOne();
    } else if (op < 18) {
      RunUntilRandom();
    } else {
      RunAll();
    }
    Check();
  }

  // Runs the queue to exactly `until` and checks the boundary contract:
  // every event due by then fired (those scheduled along the way included),
  // none later did, and the clock lands on `until` unless a closure stopped
  // the run.
  void RunTo(int64_t until) {
    bound_ = until;
    sim_.RunUntil(Time::Nanos(until));
    bound_ = INT64_MAX;
    if (Stopped()) {
      EXPECT_EQ(sim_.Now().nanos(), whens_[stop_seq_]);
    } else {
      EXPECT_EQ(sim_.Now().nanos(), until);
      EXPECT_TRUE(ref_.empty() || ref_.begin()->first > until)
          << "event at " << ref_.begin()->first << " left behind by RunUntil(" << until << ")";
    }
  }

  // pending_events(), the sorted PendingEventKeys() and events_processed()
  // against the reference; every interrupt poll on a multiple of its period.
  void Check() {
    ASSERT_EQ(sim_.pending_events(), ref_.size());
    std::vector<std::pair<Time, EventId>> expected;
    for (const auto& [when, seq] : ref_) {
      // ids order by schedule sequence, so (when, seq) order is (when, id).
      expected.emplace_back(Time::Nanos(when), ids_[seq]);
    }
    std::vector<std::pair<Time, EventId>> actual = sim_.PendingEventKeys();
    std::sort(actual.begin(), actual.end());
    ASSERT_EQ(actual, expected);
    ASSERT_EQ(sim_.events_processed(), fired_.size());
    for (const uint64_t polled_at : polls_) {
      ASSERT_EQ(polled_at % kPollEvery, 0u);
    }
    polls_.clear();
  }

  // Ends the sequence with an interrupt check that trips a few events
  // ahead: the run stops at the first poll at or past the limit, and the
  // interrupt is sticky.
  void RunInterrupted() {
    allow_stop_ = false;
    for (int i = 0; i < 30; ++i) {
      ScheduleOne();
    }
    const uint64_t limit = sim_.events_processed() + static_cast<uint64_t>(rng_.UniformInt(1, 12));
    const uint64_t stop_at = (limit + kPollEvery - 1) / kPollEvery * kPollEvery;
    sim_.SetInterruptCheck([this, limit] { return sim_.events_processed() >= limit; },
                           kPollEvery);
    sim_.Run();
    Check();
    if (!sim_.interrupted()) {
      EXPECT_TRUE(ref_.empty());
      EXPECT_LT(sim_.events_processed(), stop_at);
      return;
    }
    EXPECT_EQ(sim_.events_processed(), stop_at);
    const Time now = sim_.Now();
    ScheduleOne();
    sim_.Run();
    sim_.RunUntil(now + Time::Nanos(100));
    EXPECT_EQ(sim_.events_processed(), stop_at) << "an interrupted simulator ran on";
    EXPECT_EQ(sim_.Now(), now);
    Check();
  }

 private:
  std::function<void()> Closure(uint64_t seq) {
    return [this, seq] { OnFire(seq); };
  }

  // A poll that never interrupts, recording where it ran.
  void InstallPolling() {
    sim_.SetInterruptCheck(
        [this] {
          polls_.push_back(sim_.events_processed());
          return false;
        },
        kPollEvery);
  }

  void OnFire(uint64_t seq) {
    ASSERT_FALSE(ref_.empty()) << "event " << seq << " fired with no live event left";
    const auto [when, expected] = *ref_.begin();
    ASSERT_EQ(seq, expected) << "fired out of (when, sequence) order";
    ASSERT_EQ(sim_.Now().nanos(), when);
    ASSERT_LE(when, bound_) << "fired past the RunUntil boundary";
    ref_.erase(ref_.begin());
    fired_.push_back(seq);
    ASSERT_EQ(sim_.pending_events(), ref_.size()) << "a running event still counts as pending";
    // Closures schedule and cancel too (about 0.45 children per event, so
    // every Run() drains).
    if (rng_.Bernoulli(0.3)) {
      ScheduleOne();
    }
    if (rng_.Bernoulli(0.15)) {
      ScheduleOne();
    }
    if (rng_.Bernoulli(0.2)) {
      CancelOne();
    }
    if (allow_stop_ && rng_.Bernoulli(0.02)) {
      sim_.Stop();
      stop_requested_ = true;
      stop_seq_ = seq;
    }
  }

  // A uniform index into a non-empty container of `n` elements.
  size_t Pick(size_t n) {
    return static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  // A random pending time, for ties and exact RunUntil boundaries.
  int64_t PendingTime() {
    return std::next(ref_.begin(), static_cast<std::ptrdiff_t>(Pick(ref_.size())))->first;
  }

  void ScheduleOne() {
    const int64_t now = sim_.Now().nanos();
    int64_t when = now;  // zero delay
    const int64_t kind = rng_.UniformInt(0, 3);
    if (kind == 1 && !ref_.empty()) {
      when = PendingTime();  // same-time tie with a live event
    } else if (kind >= 2) {
      when = now + rng_.UniformInt(1, 40);
    }
    const uint64_t seq = ids_.size();
    const EventId id = rng_.Bernoulli(0.5) ? sim_.Schedule(Time::Nanos(when - now), Closure(seq))
                                            : sim_.ScheduleAt(Time::Nanos(when), Closure(seq));
    ASSERT_NE(id, kInvalidEventId);
    ASSERT_TRUE(ids_.empty() || id > ids_.back()) << "ids must grow in schedule order";
    ASSERT_EQ(seq_of_.count(id), 0u) << "id " << id << " issued twice";
    ids_.push_back(id);
    whens_.push_back(when);
    seq_of_[id] = seq;
    ref_.emplace(when, seq);
  }

  void CancelOne() {
    const int64_t kind = rng_.UniformInt(0, 4);
    if (kind <= 1 && !ref_.empty()) {
      // A live event, sometimes cancelled twice.
      const auto it = std::next(ref_.begin(), static_cast<std::ptrdiff_t>(Pick(ref_.size())));
      const EventId id = ids_[it->second];
      ref_.erase(it);
      sim_.Cancel(id);
      if (rng_.Bernoulli(0.3)) {
        sim_.Cancel(id);
      }
    } else if (kind == 2 && !ids_.empty()) {
      // Any issued id: live, fired or already cancelled.
      const uint64_t seq = Pick(ids_.size());
      ref_.erase({whens_[seq], seq});
      sim_.Cancel(ids_[seq]);
    } else if (kind == 3 && !fired_.empty()) {
      // One that already fired (possibly the running event itself).
      sim_.Cancel(ids_[fired_[Pick(fired_.size())]]);
    } else {
      // Never issued: the invalid id, a neighbour of an issued id, or noise.
      EventId id = kInvalidEventId;
      const int64_t pick = rng_.UniformInt(0, 3);
      if (pick == 1 && !ids_.empty()) {
        const EventId issued = ids_[Pick(ids_.size())];
        id = rng_.Bernoulli(0.5) ? issued + 1 : issued - 1;
      } else if (pick >= 2) {
        id = rng_.NextUint64();
      }
      if (seq_of_.count(id) == 0) {
        sim_.Cancel(id);
      }
    }
  }

  void RunUntilRandom() {
    const int64_t now = sim_.Now().nanos();
    int64_t until = now + rng_.UniformInt(0, 30);
    if (!ref_.empty() && rng_.Bernoulli(0.3)) {
      until = PendingTime();  // land exactly on an event's time
    }
    RunTo(until);
  }

  void RunAll() {
    sim_.Run();
    EXPECT_TRUE(Stopped() || ref_.empty()) << "Run() returned with events left";
  }

  // After a run: whether a closure called Stop(), in which case its event
  // must have been the last to fire.
  bool Stopped() {
    if (!stop_requested_) {
      return false;
    }
    stop_requested_ = false;
    EXPECT_EQ(fired_.back(), stop_seq_) << "run continued past Stop()";
    return true;
  }

  Simulator sim_;
  Rng rng_;                                     // the operation stream
  std::set<std::pair<int64_t, uint64_t>> ref_;  // live (when ns, sequence)
  std::vector<int64_t> whens_;                  // sequence -> when
  std::vector<EventId> ids_;                    // sequence -> issued id
  std::map<EventId, uint64_t> seq_of_;          // issued id -> sequence
  std::vector<uint64_t> fired_;                 // sequences in firing order
  std::vector<uint64_t> polls_;                 // events_processed at each poll
  int64_t bound_ = INT64_MAX;                   // latest time the current run may fire
  bool stop_requested_ = false;
  uint64_t stop_seq_ = 0;
  bool allow_stop_ = true;
};

TEST(EventQueueModelTest, RandomSequencesMatchTheReference) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    QueueModel model(static_cast<uint64_t>(seed));
    for (int step = 0; step < kSteps && !testing::Test::HasFatalFailure(); ++step) {
      model.Step();
    }
    model.RunInterrupted();
    if (testing::Test::HasFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace dibs
