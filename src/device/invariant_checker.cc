#include "src/device/invariant_checker.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "src/net/packet_debug.h"
#include "src/util/env.h"

namespace dibs {

InvariantChecker::InvariantChecker()
    : plant_leak_(env::Flag("DIBS_CHAOS_PLANT", false)) {}

void InvariantChecker::FailOn(const char* invariant, const Packet& p,
                              const std::string& detail) const {
  std::ostringstream os;
  os << detail << "; " << DescribePacket(p);
  validate::Fail(invariant, os.str());
}

InvariantChecker::PacketState* InvariantChecker::Observe(const Packet& p,
                                                         const char* where) {
  auto it = ledger_.find(p.uid);
  if (p.uid == 0 || it == ledger_.end()) {
    // Not injected through a host NIC (synthetic test traffic): exempt from
    // the per-uid ledger but still counted so CheckBalanced can widen.
    untracked_seen_ = true;
    ++untracked_events_;
    return nullptr;
  }
  PacketState& state = it->second;
  if (state.terminal != Terminal::kInFlight) {
    FailOn("ledger.terminal-reuse", p,
           std::string(where) + " observed a packet that already reached its terminal " +
               (state.terminal == Terminal::kDelivered ? "state (delivered)"
                                                       : "state (dropped)"));
  }
  if (p.ttl > state.last_ttl) {
    std::ostringstream os;
    os << where << " saw TTL grow from " << static_cast<int>(state.last_ttl) << " to "
       << static_cast<int>(p.ttl);
    FailOn("ledger.ttl-grew", p, os.str());
  }
  state.last_ttl = p.ttl;
  const int hops_consumed = state.injected_ttl - p.ttl;
  if (p.detour_count > hops_consumed) {
    std::ostringstream os;
    os << where << " saw detour count " << p.detour_count << " exceed the "
       << hops_consumed << " switch hops consumed (injected ttl "
       << static_cast<int>(state.injected_ttl) << "): detours must each burn one TTL hop";
    FailOn("ledger.detours-exceed-ttl", p, os.str());
  }
  return &state;
}

void InvariantChecker::OnHostSend(HostId host, const Packet& p, Time at) {
  if (p.uid == 0) {
    untracked_seen_ = true;
    ++untracked_events_;
    return;
  }
  PacketState state;
  state.injected_ttl = p.ttl;
  state.last_ttl = p.ttl;
  const bool inserted = ledger_.emplace(p.uid, state).second;
  if (!inserted) {
    FailOn("ledger.duplicate-uid", p,
           "host " + std::to_string(host) + " injected a uid that is already live");
  }
  ++injected_;
}

void InvariantChecker::OnDetour(int node, uint16_t detour_port, const Packet& p, Time at) {
  PacketState* state = Observe(p, "detour");
  if (state == nullptr) {
    return;
  }
  if (p.detour_count != state->detours + 1) {
    std::ostringstream os;
    os << "detour at node " << node << " advanced the packet's detour count to "
       << p.detour_count << " but the ledger has seen " << state->detours << " detours";
    FailOn("ledger.detour-count", p, os.str());
  }
  state->detours = p.detour_count;
}

void InvariantChecker::OnDrop(int node, const Packet& p, DropReason reason, Time at) {
  PacketState* state = Observe(p, "drop");
  if (state == nullptr) {
    return;
  }
  state->terminal = Terminal::kDropped;
  ++dropped_;
  if (reason == DropReason::kTtlExpired) {
    ++ttl_dropped_;
  }
  if (IsFaultDrop(reason)) {
    ++fault_dropped_;
  }
}

void InvariantChecker::OnHostDeliver(HostId host, const Packet& p, Time at) {
  PacketState* state = Observe(p, "deliver");
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

void InvariantChecker::OnEvicted(const Packet& p) {
  PacketState* state = Observe(p, "pfabric-evict");
  if (state == nullptr) {
    return;
  }
  state->terminal = Terminal::kDropped;
  ++dropped_;
}

void InvariantChecker::OnWireEnter(const Packet& p, bool link_up) {
  if (!link_up) {
    validate::Fail("ledger.dead-port-delivery",
                   "a port transmitted a packet while its link was down — down ports "
                   "must drain or blackhole, never deliver; " +
                       DescribePacket(p));
  }
  ++on_wire_;
}

void InvariantChecker::OnWireExit(const Packet& p) {
  if (on_wire_ == 0) {
    validate::Fail("ledger.wire-underflow",
                   "a packet landed off the wire that was never transmitted; " +
                       DescribePacket(p));
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
  // Unordered iteration is safe here: the fold only builds `leaked`, which is
  // sorted before anything order-sensitive (the diagnostic) consumes it.
  for (const auto& [uid, state] : ledger_) {  // lint:allow(determinism-ast)
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
