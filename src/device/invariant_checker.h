// DIBS_VALIDATE network-wide packet-conservation ledger.
//
// The checker is a TraceSink on the Network's event stream: it sees every
// packet the hosts inject (kHostSend fires after a NIC accepts a packet),
// every detour, every wire entry and exit, and every terminal event
// (delivery or drop — TTL expiry and pFabric eviction included), and
// enforces:
//
//  * every injected uid is injected exactly once;
//  * every injected packet reaches AT MOST one terminal state — a second
//    delivery or drop of the same uid throws immediately;
//  * a packet's detour count never exceeds the switch hops it has consumed
//    (each detour burns one TTL decrement, §5.5.3), and its TTL never grows;
//  * at quiescence, every injected packet reached EXACTLY one terminal state
//    (CheckQuiescent), and at any event boundary the in-flight population
//    equals buffered-in-queues + on-the-wire (CheckBalanced) — a leaked or
//    duplicated packet shows up as a nonzero balance.
//
// Packets that enter the network without passing a host NIC (tests that
// enqueue on switch ports directly) are counted as untracked and exempt from
// the per-uid ledger; scenario traffic is always tracked.
//
// The Network auto-installs one checker when validation is enabled, as the
// first subscriber of every kind it reads, so `DIBS_VALIDATE=1 ctest`
// exercises the ledger everywhere and a violation throws before any other
// sink records the offending event. Violations throw ValidationError naming
// the offending event as its trace JSONL line (uid, TTL and detour count
// included); when tracing is on, the throw also dumps the flight-recorder
// ring, so the event history leading up to the violation survives for
// trace_tool.

#ifndef SRC_DEVICE_INVARIANT_CHECKER_H_
#define SRC_DEVICE_INVARIANT_CHECKER_H_

#include <cstdint>
#include <unordered_map>

#include "src/trace/trace_sink.h"
#include "src/util/validation.h"

namespace dibs {

class InvariantChecker : public TraceSink {
 public:
  static constexpr TraceKindSet kKinds =
      TraceKinds({TraceEventType::kHostSend, TraceEventType::kHostDeliver,
                  TraceEventType::kWireEnter, TraceEventType::kWireExit,
                  TraceEventType::kDetour, TraceEventType::kDrop});

  // Reads DIBS_CHAOS_PLANT once: when set, the checker deliberately
  // corrupts its own ledger (every 64th delivery is not recorded), so the
  // conservation check reports a leak on any run big enough to deliver 64
  // packets. A planted, deterministic bug — the chaos harness's end-to-end
  // self-test (find -> shrink -> corpus replay) keys on it; never set it
  // outside that test.
  InvariantChecker();

  // Wire accounting rides kWireEnter/kWireExit, so CheckBalanced can account
  // for packets that are neither queued nor terminal. A degraded link emits
  // kWireEnter before its loss draw, so a kFaultLossy drop closes the slot.
  void OnEvent(const TraceEvent& e) override;

  // Throws unless injected == delivered + dropped exactly (no packet still in
  // flight, none lost without a terminal event). Call only when the
  // simulation has fully drained.
  void CheckQuiescent() const;

  // Conservation at an event boundary: every in-flight tracked packet must be
  // buffered in some queue or on some wire. `buffered_packets` is the
  // network-wide queue occupancy (Network::TotalBufferedPackets), which also
  // counts untracked packets — so the balance check requires
  // in_flight <= buffered + on_wire, with equality when nothing untracked is
  // buffered (`untracked` false). Throws on imbalance.
  void CheckBalanced(uint64_t buffered_packets) const;

  uint64_t injected() const { return injected_; }
  uint64_t delivered() const { return delivered_; }
  uint64_t dropped() const { return dropped_; }
  uint64_t in_flight() const { return injected_ - delivered_ - dropped_; }
  uint64_t on_wire() const { return on_wire_; }

 private:
  enum class Terminal : uint8_t { kInFlight = 0, kDelivered = 1, kDropped = 2 };

  struct PacketState {
    uint8_t injected_ttl = 0;
    uint8_t last_ttl = 0;
    uint16_t detours = 0;
    Terminal terminal = Terminal::kInFlight;
  };

  void OnHostSend(const TraceEvent& e);
  void OnDetour(const TraceEvent& e);
  void OnDrop(const TraceEvent& e);
  void OnHostDeliver(const TraceEvent& e);
  void CloseWire(const TraceEvent& e);

  // Returns the tracked state for the event's packet, or nullptr for
  // untracked packets (which set untracked_seen_). Applies the TTL/detour
  // monotonicity checks shared by every observation point.
  PacketState* Observe(const TraceEvent& e, const char* where);

  [[noreturn]] void FailOn(const char* invariant, const TraceEvent& e,
                           const std::string& detail) const;

  // Keyed lookup, plus one fold in CheckQuiescent that sorts what it collects
  // before the leak diagnostic reads it.
  std::unordered_map<uint64_t, PacketState> ledger_;  // lint:allow(unordered-iter): sorted on use
  uint64_t injected_ = 0;
  uint64_t delivered_ = 0;
  uint64_t dropped_ = 0;
  uint64_t on_wire_ = 0;
  bool untracked_seen_ = false;

  // DIBS_CHAOS_PLANT state (see the constructor comment).
  bool plant_leak_ = false;
  uint64_t plant_counter_ = 0;
};

}  // namespace dibs

#endif  // SRC_DEVICE_INVARIANT_CHECKER_H_
