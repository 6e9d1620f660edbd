// Model test for the simulator's event queue: fixed-seed random sequences of
// schedule, cancel and run operations, checked after every step against a
// reference std::set of (when, schedule sequence) pairs — the order the
// queue must fire in. A second phase holds the queue a thousand events deep
// and cancels between schedules and runs, so a cancelled key's hole is
// filled from both sides: by a last key that must sift up past the hole's
// parent, and by one that must sift down. A third phase draws the delays
// real runs schedule, so keys take the simulator's FIFO delay lanes as well
// as its heap: lane and heap keys tie, lane keys are cancelled at a lane's
// front, middle and tail, lanes empty and are claimed by other delays, and
// a lane grows while its front sits past the end of its ring.

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
constexpr size_t kDeepLive = 1000;
constexpr int kDeepSteps = 2000;
constexpr size_t kLaneLive = 3000;
constexpr int kLaneSteps = 3000;
// The per-hop delays that dominate real runs, in ns: a 1,500-byte frame's
// serialization, and with propagation; a 40-byte ACK's, and with propagation.
constexpr int64_t kHopDelays[] = {12000, 13000, 320, 1320};
// The simulator's lane count and the delay from which keys go to the heap.
constexpr int kLanes = 8;
constexpr int64_t kLaneMaxDelayNs = 100000;

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

  // Grows the queue to kDeepLive live events spread over a wide time range,
  // then mixes cancels of random live events (half the operations) with
  // schedules and short runs that fire a few events each.
  void RunCancelHeavy() {
    allow_stop_ = false;
    spread_ = 20000;
    while (ref_.size() < kDeepLive) {
      ScheduleOne();
    }
    Check();
    for (int step = 0; step < kDeepSteps && !testing::Test::HasFatalFailure(); ++step) {
      const int64_t op = rng_.UniformInt(0, 9);
      if (op < 5) {
        CancelLive();
      } else if (op < 9 || ref_.size() < kDeepLive / 2) {
        ScheduleOne();
      } else {
        RunTo(sim_.Now().nanos() + rng_.UniformInt(0, 60));
      }
      Check();
    }
  }

  // The delays real runs draw, from a fresh model. First fixed cases, each
  // set up so the lane rule puts its keys where the comment says; then a
  // random mix that grows the queue to kLaneLive while it fires, cancels
  // and ties, so lanes fill, spill to the heap, empty and grow.
  void RunLaneMix() {
    allow_stop_ = false;
    lane_mix_ = true;
    children_ = false;
    ASSERT_EQ(sim_.Now().nanos(), 0);
    // A lane key, then a heap key at the same time: kLanes distinct short
    // delays take every lane, so 10 us later a ninth short delay that lands
    // on the last lane key's time goes to the heap.
    for (int lane = 0; lane < kLanes; ++lane) {
      ScheduleAtTime(20000 + 1000 * lane);
    }
    RunTo(10000);
    const uint64_t lane_first = ids_.size() - 1;
    ScheduleAtTime(20000 + 1000 * (kLanes - 1));
    // A 150 us timer takes the heap. Once every lane has emptied, a 5 us
    // delay claims a lane again and lands on the timer's time: a heap key,
    // then a lane key.
    ScheduleAtTime(160000);
    RunTo(155000);
    ScheduleAtTime(160000);
    // Five keys of one delay in one lane; cancel its front, middle and tail.
    std::vector<uint64_t> lane;
    for (int i = 0; i < 5; ++i) {
      lane.push_back(ids_.size());
      ScheduleAtTime(sim_.Now().nanos() + 30000);
      RunTo(sim_.Now().nanos() + 100);
    }
    CancelSeq(lane[0]);
    CancelSeq(lane[2]);
    CancelSeq(lane[4]);
    // The same delay again: its lane still holds keys and tombstones.
    ScheduleAtTime(sim_.Now().nanos() + 30000);
    Check();
    RunAll();
    Check();
    EXPECT_LT(Fired(lane_first), Fired(lane_first + 1)) << "lane key first, then heap key";
    EXPECT_LT(Fired(lane_first + 2), Fired(lane_first + 3)) << "heap key first, then lane key";

    // The random mix. Each step schedules a few keys, a count that ramps up
    // so lanes keep growing after their fronts have moved, and runs a short
    // window, so a lane's front wraps round its ring before the ring grows.
    children_ = true;
    for (int step = 0; step < kLaneSteps && !testing::Test::HasFatalFailure(); ++step) {
      const int64_t burst = ref_.size() < kLaneLive ? 1 + step / 400 : 0;
      for (int64_t n = rng_.UniformInt(0, burst); n > 0; --n) {
        ScheduleOne();
      }
      const int64_t op = rng_.UniformInt(0, 9);
      if (op == 0) {
        CancelLive();
      } else if (op == 1) {
        CancelInLane();
      }
      RunTo(sim_.Now().nanos() + rng_.UniformInt(0, 40));
      Check();
    }
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
    if (!children_) {
      return;
    }
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
      when = now + (lane_mix_ ? LaneDelay() : rng_.UniformInt(1, spread_));
    }
    ScheduleAtTime(when);
  }

  // The lane phase's delays: mostly the per-hop four; then one-off short
  // delays, more distinct values than there are lanes; both sides of the
  // lane cap; and timers, which go to the heap.
  int64_t LaneDelay() {
    const int64_t pick = rng_.UniformInt(0, 19);
    if (pick < 12) {
      return kHopDelays[pick % 4];
    }
    if (pick < 15) {
      return rng_.UniformInt(1, kLaneMaxDelayNs - 1);
    }
    if (pick < 17) {
      return pick == 15 ? kLaneMaxDelayNs - 1 : kLaneMaxDelayNs;
    }
    return rng_.UniformInt(kLaneMaxDelayNs, 4 * kLaneMaxDelayNs);
  }

  // Schedules one event at `when`, through Schedule or ScheduleAt.
  void ScheduleAtTime(int64_t when) {
    const int64_t now = sim_.Now().nanos();
    const uint64_t seq = ids_.size();
    const EventId id = rng_.Bernoulli(0.5) ? sim_.Schedule(Time::Nanos(when - now), Closure(seq))
                                            : sim_.ScheduleAt(Time::Nanos(when), Closure(seq));
    ASSERT_NE(id, kInvalidEventId);
    ASSERT_TRUE(ids_.empty() || id > ids_.back()) << "ids must grow in schedule order";
    ASSERT_EQ(seq_of_.count(id), 0u) << "id " << id << " issued twice";
    ids_.push_back(id);
    whens_.push_back(when);
    scheduled_at_.push_back(now);
    seq_of_[id] = seq;
    ref_.emplace(when, seq);
  }

  // A live event, sometimes cancelled twice.
  void CancelLive() {
    if (ref_.empty()) {
      return;
    }
    const auto it = std::next(ref_.begin(), static_cast<std::ptrdiff_t>(Pick(ref_.size())));
    const EventId id = ids_[it->second];
    ref_.erase(it);
    sim_.Cancel(id);
    if (rng_.Bernoulli(0.3)) {
      sim_.Cancel(id);
    }
  }

  // Cancels event `seq` and drops it from the reference.
  void CancelSeq(uint64_t seq) {
    ref_.erase({whens_[seq], seq});
    sim_.Cancel(ids_[seq]);
  }

  // Cancels the first, a middle or the last live key of one per-hop delay:
  // keys of one delay sit in one lane in schedule order, so this cancels at
  // a lane's front, middle or tail.
  void CancelInLane() {
    const int64_t delay = kHopDelays[rng_.UniformInt(0, 3)];
    std::vector<uint64_t> keys;
    for (const auto& [when, seq] : ref_) {
      if (when - scheduled_at_[seq] == delay) {
        keys.push_back(seq);
      }
    }
    if (keys.empty()) {
      return;
    }
    std::sort(keys.begin(), keys.end());
    const int64_t where = rng_.UniformInt(0, 2);
    CancelSeq(where == 0 ? keys.front() : where == 1 ? keys[keys.size() / 2] : keys.back());
  }

  // Where event `seq` came in the firing order (SIZE_MAX: never fired).
  size_t Fired(uint64_t seq) const {
    const auto it = std::find(fired_.begin(), fired_.end(), seq);
    return it == fired_.end() ? SIZE_MAX : static_cast<size_t>(it - fired_.begin());
  }

  void CancelOne() {
    const int64_t kind = rng_.UniformInt(0, 4);
    if (kind <= 1 && !ref_.empty()) {
      CancelLive();
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
  std::vector<int64_t> scheduled_at_;           // sequence -> Now() when scheduled
  std::vector<EventId> ids_;                    // sequence -> issued id
  std::map<EventId, uint64_t> seq_of_;          // issued id -> sequence
  std::vector<uint64_t> fired_;                 // sequences in firing order
  std::vector<uint64_t> polls_;                 // events_processed at each poll
  int64_t bound_ = INT64_MAX;                   // latest time the current run may fire
  bool stop_requested_ = false;
  uint64_t stop_seq_ = 0;
  bool allow_stop_ = true;
  int64_t spread_ = 40;    // latest delay ScheduleOne draws, in ns
  bool lane_mix_ = false;  // ScheduleOne draws LaneDelay() instead
  bool children_ = true;   // firing events schedule and cancel more
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

TEST(EventQueueModelTest, CancelHeavyDeepQueueMatchesTheReference) {
  for (int seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    QueueModel model(static_cast<uint64_t>(1000 + seed));
    model.RunCancelHeavy();
    model.RunInterrupted();
    if (testing::Test::HasFailure()) {
      return;
    }
  }
}

TEST(EventQueueModelTest, DelayLaneMixMatchesTheReference) {
  for (int seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    QueueModel model(static_cast<uint64_t>(2000 + seed));
    model.RunLaneMix();
    model.RunInterrupted();
    if (testing::Test::HasFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace dibs
