#include "src/device/invariant_checker.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "src/trace/trace_codec.h"
#include "src/util/env.h"

namespace dibs {

InvariantChecker::InvariantChecker()
    : plant_leak_(env::Flag("DIBS_CHAOS_PLANT", false)) {}

void InvariantChecker::FailOn(const char* invariant, const TraceEvent& e,
                              const std::string& detail) const {
  validate::Fail(invariant, detail + "; event " + EncodeTraceEvent(e));
}

void InvariantChecker::OnEvent(const TraceEvent& e) {
  switch (e.type) {
    case TraceEventType::kHostSend:
      OnHostSend(e);
      break;
    case TraceEventType::kHostDeliver:
      OnHostDeliver(e);
      break;
    case TraceEventType::kDetour:
      OnDetour(e);
      break;
    case TraceEventType::kDrop:
      OnDrop(e);
      break;
    case TraceEventType::kWireEnter:
      ++on_wire_;
      break;
    case TraceEventType::kWireExit:
      CloseWire(e);
      break;
    default:
      break;
  }
}

InvariantChecker::PacketState* InvariantChecker::Observe(const TraceEvent& e,
                                                         const char* where) {
  auto it = ledger_.find(e.uid);
  if (e.uid == 0 || it == ledger_.end()) {
    // Not injected through a host NIC (synthetic test traffic): exempt from
    // the per-uid ledger but still noted so CheckBalanced can widen.
    untracked_seen_ = true;
    return nullptr;
  }
  PacketState& state = it->second;
  if (state.terminal != Terminal::kInFlight) {
    FailOn("ledger.terminal-reuse", e,
           std::string(where) + " observed a packet that already reached its terminal " +
               (state.terminal == Terminal::kDelivered ? "state (delivered)"
                                                       : "state (dropped)"));
  }
  if (e.ttl > state.last_ttl) {
    std::ostringstream os;
    os << where << " saw TTL grow from " << static_cast<int>(state.last_ttl) << " to "
       << static_cast<int>(e.ttl);
    FailOn("ledger.ttl-grew", e, os.str());
  }
  state.last_ttl = e.ttl;
  const int hops_consumed = state.injected_ttl - e.ttl;
  if (e.detour_count > hops_consumed) {
    std::ostringstream os;
    os << where << " saw detour count " << e.detour_count << " exceed the "
       << hops_consumed << " switch hops consumed (injected ttl "
       << static_cast<int>(state.injected_ttl) << "): detours must each burn one TTL hop";
    FailOn("ledger.detours-exceed-ttl", e, os.str());
  }
  return &state;
}

void InvariantChecker::OnHostSend(const TraceEvent& e) {
  if (e.uid == 0) {
    untracked_seen_ = true;
    return;
  }
  PacketState state;
  state.injected_ttl = e.ttl;
  state.last_ttl = e.ttl;
  const bool inserted = ledger_.emplace(e.uid, state).second;
  if (!inserted) {
    FailOn("ledger.duplicate-uid", e,
           "host " + std::to_string(e.src) + " injected a uid that is already live");
  }
  ++injected_;
}

void InvariantChecker::OnDetour(const TraceEvent& e) {
  PacketState* state = Observe(e, "detour");
  if (state == nullptr) {
    return;
  }
  if (e.detour_count != state->detours + 1) {
    std::ostringstream os;
    os << "detour at node " << e.node << " advanced the packet's detour count to "
       << e.detour_count << " but the ledger has seen " << state->detours << " detours";
    FailOn("ledger.detour-count", e, os.str());
  }
  state->detours = e.detour_count;
}

void InvariantChecker::OnDrop(const TraceEvent& e) {
  if (e.drop_reason == static_cast<uint8_t>(DropReason::kFaultLossy)) {
    CloseWire(e);  // lost in flight after kWireEnter
  }
  PacketState* state =
      Observe(e, e.drop_reason == kTraceEvictionReason ? "pfabric-evict" : "drop");
  if (state == nullptr) {
    return;
  }
  state->terminal = Terminal::kDropped;
  ++dropped_;
}

void InvariantChecker::OnHostDeliver(const TraceEvent& e) {
  PacketState* state = Observe(e, "deliver");
  if (state == nullptr) {
    return;
  }
  if (plant_leak_ && ++plant_counter_ % 64 == 0) {
    // Planted bug (DIBS_CHAOS_PLANT): drop this delivery on the ledger
    // floor. The packet stays "in flight" forever and the conservation
    // check reports it as leaked.
    return;
  }
  state->terminal = Terminal::kDelivered;
  ++delivered_;
}

void InvariantChecker::CloseWire(const TraceEvent& e) {
  if (on_wire_ == 0) {
    FailOn("ledger.wire-underflow", e,
           "a packet landed off the wire that was never transmitted");
  }
  --on_wire_;
}

void InvariantChecker::CheckQuiescent() const {
  if (injected_ == delivered_ + dropped_) {
    return;
  }
  // Leak: some injected packets never reached a terminal state. Report the
  // lowest leaked uids (sorted, so the diagnostic is deterministic).
  std::vector<uint64_t> leaked;
  // Unordered iteration is safe here (hence ledger_'s unordered-iter allow):
  // the fold only builds `leaked`, which is sorted before anything
  // order-sensitive (the diagnostic) consumes it.
  for (const auto& [uid, state] : ledger_) {
    if (state.terminal == Terminal::kInFlight) {
      leaked.push_back(uid);
    }
  }
  std::sort(leaked.begin(), leaked.end());
  std::ostringstream os;
  os << "conservation ledger unbalanced at quiescence: injected " << injected_
     << " != delivered " << delivered_ << " + dropped " << dropped_ << " (" << leaked.size()
     << " packet(s) leaked; first uids:";
  for (size_t i = 0; i < leaked.size() && i < 8; ++i) {
    os << " " << leaked[i];
  }
  os << ")";
  validate::Fail("ledger.leak", os.str());
}

void InvariantChecker::CheckBalanced(uint64_t buffered_packets) const {
  const uint64_t accounted = buffered_packets + on_wire_;
  const bool balanced =
      untracked_seen_ ? in_flight() <= accounted : in_flight() == accounted;
  if (balanced) {
    return;
  }
  std::ostringstream os;
  os << "conservation ledger unbalanced: injected " << injected_ << " - delivered "
     << delivered_ << " - dropped " << dropped_ << " = " << in_flight()
     << " in flight, but only " << buffered_packets << " buffered + " << on_wire_
     << " on the wire are accounted for";
  validate::Fail("ledger.balance", os.str());
}

}  // namespace dibs
