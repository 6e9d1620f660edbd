#include "src/sim/simulator.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/util/logging.h"
#include "src/util/validation.h"

namespace dibs {

EventId Simulator::Schedule(Time delay, std::function<void()> fn) {
  DIBS_DCHECK(delay >= Time::Zero());
  if (delay < Time::Zero()) {
    delay = Time::Zero();
  }
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(Time when, std::function<void()> fn) {
  if (validate::Enabled() && when < now_) {
    std::ostringstream os;
    os << "event scheduled into the past: " << when << " < now " << now_
       << " (events processed: " << events_processed_ << ")";
    validate::Fail("sim.schedule-past", os.str());
  }
  DIBS_CHECK(when >= now_) << "scheduling into the past: " << when << " < " << now_;
  DIBS_CHECK(next_seq_ < kSequenceLimit) << "event sequence space exhausted";
  size_t slot;
  if (free_slots_.empty()) {
    DIBS_CHECK(slots_.size() <= kSlotMask) << "more than 2^24 live events";
    slot = slots_.size();
    slots_.emplace_back();
    pos_.push_back(0);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].id = id;
  slots_[slot].fn = std::move(fn);
  ++live_;
  if (const Time delay = when - now_; delay < kLaneMaxDelay) {
    if (const size_t lane = LaneFor(delay); lane < kLanes) {
      pos_[slot] = kInLane;
      PushLane(lane, Key{when, id});
      return id;
    }
  }
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Key{when, id});
  return id;
}

void Simulator::Cancel(EventId id) {
  const size_t slot = SlotOf(id);
  if (id == kInvalidEventId || slot >= slots_.size() || !IsLive(id)) {
    return;  // fired, already cancelled, or never issued
  }
  if (pos_[slot] != kInLane) {
    RemoveAt(pos_[slot]);
  }  // else the lane keeps the key as a tombstone
  FreeSlot(slot);
  --live_;
}

void Simulator::SiftUp(size_t i, Key key) {
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Earlier(key, heap_[parent])) {
      break;
    }
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, key);
}

void Simulator::SiftDown(size_t i, Key key) {
  const size_t n = heap_.size();
  while (true) {
    const size_t first = 4 * i + 1;
    if (first >= n) {
      break;
    }
    const size_t end = std::min(first + 4, n);
    size_t best = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Earlier(heap_[best], key)) {
      break;
    }
    Place(i, heap_[best]);
    i = best;
  }
  Place(i, key);
}

void Simulator::RemoveAt(size_t i) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) {
    return;  // the last key itself
  }
  if (i > 0 && Earlier(last, heap_[(i - 1) / 4])) {
    SiftUp(i, last);
  } else {
    SiftDown(i, last);
  }
}

size_t Simulator::LaneFor(Time delay) {
  size_t empty = kLanes;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    if (lane_delay_[lane] == delay) {
      return lane;
    }
    if (empty == kLanes && lane_delay_[lane] == kNoDelay) {
      empty = lane;
    }
  }
  if (empty != kLanes) {
    lane_delay_[empty] = delay;
  }
  return empty;
}

void Simulator::PushLane(size_t l, Key key) {
  Lane& lane = lanes_[l];
  if (lane.size == lane.ring.size()) {
    // Unwrap into a ring twice the size (16 keys the first time), front
    // first.
    std::vector<Key> grown(std::max<size_t>(16, 2 * lane.ring.size()));
    for (size_t i = 0; i < lane.size; ++i) {
      grown[i] = lane.ring[lane.Index(i)];
    }
    lane.ring.swap(grown);
    lane.head = 0;
  }
  lane.ring[lane.Index(lane.size)] = key;
  if (lane.size++ == 0) {
    lane_front_[l] = key;
  }
}

void Simulator::PopLane(size_t l) {
  Lane& lane = lanes_[l];
  lane.head = lane.Index(1);
  if (--lane.size == 0) {
    lane_front_[l] = kNoKey;
    lane_delay_[l] = kNoDelay;  // free for any delay again
  } else {
    lane_front_[l] = lane.ring[lane.head];
  }
}

size_t Simulator::NextSource() {
  while (true) {
    // Branch-free select of the earliest lane front; an empty lane's kNoKey
    // loses to every key.
    size_t lane = 0;
    Rank best = RankOf(lane_front_[0]);
    for (size_t i = 1; i < kLanes; ++i) {
      const Rank rank = RankOf(lane_front_[i]);
      const bool earlier = rank < best;
      best = earlier ? rank : best;
      lane = earlier ? i : lane;
    }
    if (!heap_.empty() && RankOf(heap_.front()) < best) {
      return kHeap;  // heap keys are always live
    }
    if (IsLive(lane_front_[lane].id)) {
      return lane;
    }
    PopLane(lane);  // a cancelled key
  }
}

void Simulator::RunFrom(size_t source) {
  const Key key = FrontOf(source);
  if (source == kHeap) {
    RemoveAt(0);
  } else {
    PopLane(source);
  }
  --live_;
  // The closure leaves the slab before it runs: it may schedule more events,
  // which can grow (and reallocate) the slab or reuse this very slot.
  const size_t slot = SlotOf(key.id);
  std::function<void()> fn = std::move(slots_[slot].fn);
  FreeSlot(slot);
  if (validate::Enabled() && key.when < now_) {
    std::ostringstream os;
    os << "event timestamp regressed: popped event " << key.id << " at " << key.when
       << " behind clock " << now_ << " (events processed: " << events_processed_ << ")";
    validate::Fail("sim.time-regression", os.str());
  }
  DIBS_DCHECK(key.when >= now_);
  now_ = key.when;
  ++events_processed_;
  fn();
}

void Simulator::SetInterruptCheck(std::function<bool()> check, uint64_t check_every) {
  DIBS_CHECK_GT(check_every, 0u);
  interrupt_check_ = std::move(check);
  check_every_ = check_every;
}

bool Simulator::CheckInterrupt() {
  if (interrupted_) {
    return true;
  }
  if (event_budget_ != 0 && events_processed_ >= event_budget_) {
    interrupted_ = true;
  } else if (interrupt_check_ && events_processed_ % check_every_ == 0 &&
             interrupt_check_()) {
    interrupted_ = true;
  }
  return interrupted_;
}

void Simulator::Run() {
  stopped_ = false;
  while (!stopped_ && !CheckInterrupt() && live_ != 0) {
    RunFrom(NextSource());
  }
}

void Simulator::RunUntil(Time until) {
  DIBS_CHECK(until >= now_);
  stopped_ = false;
  // The interrupt check is polled only while events remain, so draining the
  // queue exactly at the budget still advances the clock to `until`.
  while (!stopped_ && live_ != 0 && !CheckInterrupt()) {
    const size_t source = NextSource();
    if (FrontOf(source).when > until) {
      break;
    }
    RunFrom(source);
  }
  // An interrupted run leaves Now() at the last executed event rather than
  // jumping to `until`; the partial clock is part of the failure report.
  if (!stopped_ && !interrupted_ && now_ < until) {
    now_ = until;
  }
}

std::vector<std::pair<Time, EventId>> Simulator::PendingEventKeys() const {
  std::vector<std::pair<Time, EventId>> keys;
  keys.reserve(live_);
  for (const Key& key : heap_) {
    keys.emplace_back(key.when, key.id);
  }
  for (const Lane& lane : lanes_) {
    for (size_t i = 0; i < lane.size; ++i) {
      const Key& key = lane.ring[lane.Index(i)];
      if (IsLive(key.id)) {
        keys.emplace_back(key.when, key.id);
      }
    }
  }
  return keys;
}

}  // namespace dibs
