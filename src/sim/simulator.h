// Deterministic single-threaded discrete-event simulator.
//
// Events are (time, sequence, closure) triples ordered by time with FIFO
// tie-breaking on the insertion sequence number, so two runs with identical
// inputs execute events in exactly the same order. All simulation randomness
// is drawn from the simulator-owned Rng, making runs reproducible from the
// seed alone.
//
// Layout: the queue is an indexed 4-ary min-heap of trivially copyable
// 16-byte (when, id) keys over a slab of closures. An EventId packs
// (schedule sequence << 24) | slab slot; each slot records the id of the
// live event it holds, and pos_ records where that event's key sits in the
// heap. Cancel frees the slot (destroying the closure) and takes the key
// out of the heap in O(log n), so the heap holds live events only. Sifting
// moves keys, never closures. Keys are unique and totally ordered, so the
// firing order does not depend on the heap's shape. At most 2^24 events may
// be live at once and at most 2^40 may be scheduled over a simulator's life;
// both limits are enforced with DIBS_CHECK.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

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
  size_t pending_events() const { return heap_.size(); }

  // (when, id) of every live pending event, unordered.
  std::vector<std::pair<Time, EventId>> PendingEventKeys() const;

 private:
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr uint64_t kSequenceLimit = uint64_t{1} << (64 - kSlotBits);

  struct Key {
    Time when;
    EventId id;
  };

  // Earlier-scheduled events fire first on ties.
  static bool Earlier(const Key& a, const Key& b) {
    return a.when != b.when ? a.when < b.when : a.id < b.id;
  }

  // A slab entry: the closure of live event `id`, or kInvalidEventId (and
  // no closure) while the slot is free.
  struct Slot {
    EventId id = kInvalidEventId;
    std::function<void()> fn;
  };

  static size_t SlotOf(EventId id) { return static_cast<size_t>(id & kSlotMask); }

  // Removes and runs the event on top of the heap.
  void RunTop();

  // Empties a slot and returns it to the free list.
  void FreeSlot(size_t slot) {
    slots_[slot].id = kInvalidEventId;
    slots_[slot].fn = nullptr;
    free_slots_.push_back(static_cast<uint32_t>(slot));
  }

  // Applies the event budget / interrupt check; true when the run must stop.
  bool CheckInterrupt();

  // Heap maintenance. Every write of a key goes through Place, which keeps
  // pos_ in step.
  void Place(size_t i, Key key) {
    heap_[i] = key;
    pos_[SlotOf(key.id)] = static_cast<uint32_t>(i);
  }
  void SiftUp(size_t i, Key key);
  void SiftDown(size_t i, Key key);
  // Takes the key at heap index `i` out: the last key fills the hole and
  // sifts up or down from there.
  void RemoveAt(size_t i);

  Time now_;
  uint64_t next_seq_ = 1;  // sequence 0 is never issued, so neither is id 0
  uint64_t events_processed_ = 0;
  bool stopped_ = false;
  bool interrupted_ = false;
  uint64_t event_budget_ = 0;
  uint64_t check_every_ = 4096;
  std::function<bool()> interrupt_check_;
  std::vector<Key> heap_;               // 4-ary min-heap under Earlier, live keys only
  std::vector<Slot> slots_;             // closure slab, indexed by SlotOf(id)
  std::vector<uint32_t> pos_;           // slot -> heap index of its live key
  std::vector<uint32_t> free_slots_;    // every slot not holding a live event
  Rng rng_;
};

}  // namespace dibs

#endif  // SRC_SIM_SIMULATOR_H_
