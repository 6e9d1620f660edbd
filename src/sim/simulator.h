// Deterministic single-threaded discrete-event simulator.
//
// Events are (time, sequence, closure) triples ordered by time with FIFO
// tie-breaking on the insertion sequence number, so two runs with identical
// inputs execute events in exactly the same order. All simulation randomness
// is drawn from the simulator-owned Rng, making runs reproducible from the
// seed alone.
//
// Layout: the queue is up to kLanes FIFO delay lanes in front of an indexed
// 4-ary min-heap, all holding trivially copyable 16-byte (when, id) keys
// over one slab of closures. An EventId packs (schedule sequence << 24) |
// slab slot; each slot records the id of the live event it holds, and pos_
// records where that event's key sits: its heap index, or kInLane.
//
// A schedule whose delay is under kLaneMaxDelay goes to the lane that holds
// exactly that delay, or claims an empty lane; anything else, and a short
// delay when every lane is taken, goes to the heap. Now() never decreases
// and ids grow, so each lane is already in (when, id) order, and the
// earliest of the heap top and the lane fronts is the earliest key overall:
// the firing order is the one a heap alone would give. A lane is free again
// once it empties, so a one-off delay cannot hold it for the rest of the
// run. Each packet hop's serialization and propagation delays take lanes
// and skip the sift; timers (100 us and longer) stay in the heap.
//
// Cancel frees the slot, destroying the closure at once. A heap key is taken
// out in O(log n); a lane key stays as a tombstone, dropped when it reaches
// its lane's front and is the earliest key. Sifting moves keys, never
// closures. Keys are unique and totally ordered, so the firing order does
// not depend on where a key sits. At most 2^24 events may be live at once
// and at most 2^40 may be scheduled over a simulator's life; both limits are
// enforced with DIBS_CHECK.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <array>
#include <cstddef>
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
  explicit Simulator(uint64_t seed = 1) : rng_(seed) {
    lane_front_.fill(kNoKey);
    lane_delay_.fill(kNoDelay);
  }

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
  size_t pending_events() const { return live_; }

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
  // A key as one 128-bit number that orders as Earlier does (`when` is never
  // negative), for the lane select's branch-free compares. The heap keeps
  // Earlier: there the 128-bit compare made BM_EventQueueHold 1.5x slower.
  using Rank = unsigned __int128;
  static Rank RankOf(const Key& key) {
    return static_cast<Rank>(static_cast<uint64_t>(key.when.nanos())) << 64 | key.id;
  }

  // A slab entry: the closure of live event `id`, or kInvalidEventId (and
  // no closure) while the slot is free.
  struct Slot {
    EventId id = kInvalidEventId;
    std::function<void()> fn;
  };

  static size_t SlotOf(EventId id) { return static_cast<size_t>(id & kSlotMask); }
  // Whether `id` is live; a cancelled lane key fails this. `id` must be one
  // the simulator issued.
  bool IsLive(EventId id) const { return slots_[SlotOf(id)].id == id; }

  // A delay lane: a ring of keys in (when, id) order whose capacity is a
  // power of two. lane_front_ and lane_delay_ mirror each lane's front key
  // and delay in two small arrays, so a pop selects without touching the
  // rings.
  struct Lane {
    std::vector<Key> ring;
    size_t head = 0;
    size_t size = 0;
    // The ring index of the i-th key from the front.
    size_t Index(size_t i) const { return (head + i) & (ring.size() - 1); }
  };
  static constexpr size_t kLanes = 8;
  static constexpr size_t kHeap = kLanes;  // NextSource's answer for the heap
  // Delays at or above this go to the heap: the shortest timer is pFabric's
  // 350 us RTO, and the longest per-hop delay is 13 us at 1 Gbps.
  static constexpr Time kLaneMaxDelay = Time::Micros(100);
  static constexpr Time kNoDelay = Time::Nanos(-1);         // an empty lane's delay
  static constexpr Key kNoKey = {Time::Max(), UINT64_MAX};  // an empty lane's front
  static constexpr uint32_t kInLane = UINT32_MAX;           // pos_ of a lane-held key

  // Index of the source holding the earliest live key: a lane, or kHeap.
  // Drops the tombstones it finds at the front. Requires live_ > 0.
  size_t NextSource();
  const Key& FrontOf(size_t source) const {
    return source == kHeap ? heap_.front() : lane_front_[source];
  }
  // Removes and runs the earliest key, which `source` holds.
  void RunFrom(size_t source);

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

  // Lane maintenance. LaneFor returns the lane that takes `delay`, claiming
  // an empty one, or kLanes when every lane holds another delay. A lane
  // frees itself (its delay becomes kNoDelay) when PopLane empties it.
  size_t LaneFor(Time delay);
  void PushLane(size_t lane, Key key);
  void PopLane(size_t lane);

  Time now_;
  uint64_t next_seq_ = 1;  // sequence 0 is never issued, so neither is id 0
  uint64_t events_processed_ = 0;
  bool stopped_ = false;
  bool interrupted_ = false;
  uint64_t event_budget_ = 0;
  uint64_t check_every_ = 4096;
  std::function<bool()> interrupt_check_;
  size_t live_ = 0;                      // scheduled, not yet fired or cancelled
  std::vector<Key> heap_;                // 4-ary min-heap under Earlier, live keys only
  std::array<Key, kLanes> lane_front_;   // each lane's front key, kNoKey when empty
  std::array<Time, kLanes> lane_delay_;  // each lane's delay, kNoDelay when empty
  std::array<Lane, kLanes> lanes_;       // keys and tombstones, in (when, id) order
  std::vector<Slot> slots_;              // closure slab, indexed by SlotOf(id)
  std::vector<uint32_t> pos_;            // slot -> heap index of its live key, or kInLane
  std::vector<uint32_t> free_slots_;     // every slot not holding a live event
  Rng rng_;
};

}  // namespace dibs

#endif  // SRC_SIM_SIMULATOR_H_
