// Deterministic single-threaded discrete-event simulator.
//
// Events are (time, sequence, closure) triples ordered by time with FIFO
// tie-breaking on the insertion sequence number, so two runs with identical
// inputs execute events in exactly the same order. All simulation randomness
// is drawn from the simulator-owned Rng, making runs reproducible from the
// seed alone.
//
// Layout: the queue is a binary heap of trivially copyable 16-byte
// (when, id) keys over a slab of closures. An EventId packs
// (schedule sequence << 24) | slab slot, and each slot records the id of the
// live event it holds. Cancel frees the slot (destroying the closure) at
// once and leaves the key in the heap; a popped key whose slot no longer
// holds its id is skipped. Sifting therefore moves keys, never closures, and
// cancellation needs no lookup structure. At most 2^24 events may be live
// at once and at most 2^40 may be scheduled over a simulator's life; both
// limits are enforced with DIBS_CHECK.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/time.h"
#include "src/util/rng.h"

namespace dibs {

// Handle for a scheduled event, usable with Cancel(). Opaque to callers,
// who may rely on exactly three things: id 0 is never issued, a later
// Schedule call returns a larger id (ids order by schedule sequence), and an
// id is never reused while its event is live.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulation time. Only advances inside Run*().
  Time Now() const { return now_; }

  // Schedules `fn` to run `delay` from now. Negative delays are clamped to 0
  // in release builds and assert in debug builds.
  EventId Schedule(Time delay, std::function<void()> fn);

  // Schedules `fn` at absolute time `when` (must be >= Now()).
  EventId ScheduleAt(Time when, std::function<void()> fn);

  // Cancels a pending event and destroys its closure immediately.
  // Cancelling an already-fired, already-cancelled or invalid id is a no-op,
  // which keeps timer bookkeeping in callers simple.
  void Cancel(EventId id);

  // Runs until the event queue drains or Stop() is called.
  void Run();

  // Runs every event with timestamp <= `until`, then sets Now() == `until`.
  void RunUntil(Time until);

  // Convenience: RunUntil(Now() + duration).
  void RunFor(Time duration) { RunUntil(now_ + duration); }

  // Makes Run*() return after the current event completes.
  void Stop() { stopped_ = true; }

  // --- Cooperative cancellation (used by the sweep engine, src/exp) ---
  //
  // A budget or interrupt check makes a runaway simulation abandon its run
  // cleanly: Run*() returns after the current event, interrupted() flips to
  // true, and the caller decides what to do with the partial state. Both are
  // off by default and cost nothing when unset.

  // Hard cap on total events processed; 0 means unlimited.
  void SetEventBudget(uint64_t max_events) { event_budget_ = max_events; }

  // `check` is polled every `check_every` events; returning true interrupts
  // the run. The sweep engine installs a wall-clock deadline here; it is the
  // *cooperative* half of that engine's timeout story — a run wedged outside
  // the event loop never reaches the poll, which is what the process-mode
  // hard watchdog (src/exp/process_runner.h) exists for.
  void SetInterruptCheck(std::function<bool()> check, uint64_t check_every = 4096);

  // True once a budget or interrupt check has fired. Sticky: later Run*()
  // calls return immediately until the budget/check is cleared.
  bool interrupted() const { return interrupted_; }

  Rng& rng() { return rng_; }

  uint64_t events_processed() const { return events_processed_; }
  // Live (scheduled, not yet fired or cancelled) events.
  size_t pending_events() const { return slots_.size() - free_slots_.size(); }

  // (when, id) of every live (non-cancelled) pending event, unordered.
  std::vector<std::pair<Time, EventId>> PendingEventKeys() const;

 private:
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr uint64_t kSequenceLimit = uint64_t{1} << (64 - kSlotBits);

  struct Key {
    Time when;
    EventId id;
  };

  struct KeyLater {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.id > b.id;  // earlier-scheduled events fire first on ties
    }
  };

  // A slab entry: the closure of live event `id`, or kInvalidEventId (and
  // no closure) while the slot is free.
  struct Slot {
    EventId id = kInvalidEventId;
    std::function<void()> fn;
  };

  static size_t SlotOf(EventId id) { return static_cast<size_t>(id & kSlotMask); }

  bool IsLive(const Key& key) const { return slots_[SlotOf(key.id)].id == key.id; }

  // Pops cancelled keys off the top of the heap; true when the top is then
  // a live event.
  bool SkipCancelled() {
    while (!heap_.empty()) {
      if (IsLive(heap_.front())) {
        return true;
      }
      PopKey();
    }
    return false;
  }

  // Pops and runs the live event on top of the heap.
  void RunTop();

  // Empties a slot and returns it to the free list.
  void FreeSlot(size_t slot) {
    slots_[slot].id = kInvalidEventId;
    slots_[slot].fn = nullptr;
    free_slots_.push_back(static_cast<uint32_t>(slot));
  }

  // Applies the event budget / interrupt check; true when the run must stop.
  bool CheckInterrupt();

  // Explicit binary-heap management (std::push_heap/pop_heap over a plain
  // vector instead of std::priority_queue) so PendingEventKeys can iterate
  // the live queue.
  void PushKey(Key key) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), KeyLater());
  }
  void PopKey() {
    std::pop_heap(heap_.begin(), heap_.end(), KeyLater());
    heap_.pop_back();
  }

  Time now_;
  uint64_t next_seq_ = 1;  // sequence 0 is never issued, so neither is id 0
  uint64_t events_processed_ = 0;
  bool stopped_ = false;
  bool interrupted_ = false;
  uint64_t event_budget_ = 0;
  uint64_t check_every_ = 4096;
  std::function<bool()> interrupt_check_;
  std::vector<Key> heap_;               // binary max-heap under KeyLater
  std::vector<Slot> slots_;             // closure slab, indexed by SlotOf(id)
  std::vector<uint32_t> free_slots_;    // every slot not holding a live event
  Rng rng_;
};

}  // namespace dibs

#endif  // SRC_SIM_SIMULATOR_H_
