#include "src/sim/simulator.h"

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
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].id = id;
  slots_[slot].fn = std::move(fn);
  PushKey(Key{when, id});
  return id;
}

void Simulator::Cancel(EventId id) {
  const size_t slot = SlotOf(id);
  if (id == kInvalidEventId || slot >= slots_.size() || slots_[slot].id != id) {
    return;  // fired, already cancelled, or never issued
  }
  FreeSlot(slot);
}

void Simulator::RunTop() {
  const Key key = heap_.front();
  PopKey();
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
  while (!stopped_ && !CheckInterrupt() && SkipCancelled()) {
    RunTop();
  }
}

void Simulator::RunUntil(Time until) {
  DIBS_CHECK(until >= now_);
  stopped_ = false;
  // The interrupt check is polled only while keys remain, so draining the
  // queue exactly at the budget still advances the clock to `until`.
  // Cancelled keys are skipped before the boundary test, so no live event
  // runs early and none past `until`.
  while (!stopped_ && !heap_.empty() && !CheckInterrupt() && SkipCancelled() &&
         heap_.front().when <= until) {
    RunTop();
  }
  // An interrupted run leaves Now() at the last executed event rather than
  // jumping to `until`; the partial clock is part of the failure report.
  if (!stopped_ && !interrupted_ && now_ < until) {
    now_ = until;
  }
}

std::vector<std::pair<Time, EventId>> Simulator::PendingEventKeys() const {
  std::vector<std::pair<Time, EventId>> keys;
  keys.reserve(pending_events());
  for (const Key& key : heap_) {
    if (IsLive(key)) {
      keys.emplace_back(key.when, key.id);
    }
  }
  return keys;
}

}  // namespace dibs
