// Packet drop vocabulary, shared by the forwarding path, the fault model,
// and every accounting surface (Network's per-reason drop table, tables,
// JSONL/CSV sinks, validation diagnostics).
//
// Reasons 0-3 are the healthy-network outcomes; 4-7 come from the fault
// subsystem (src/fault): administratively-downed links, crashed switches,
// random loss on degraded links, and destinations whose every next-hop link
// is dead. Reasons 8-9 come from the overload guard (src/guard): a tripped
// per-switch circuit breaker falling back to drop-tail, and the adaptive
// detour-TTL clamp refusing further detours under fabric-wide pressure.
// Reason 10 refines the detour-decline vocabulary: the switch had
// switch-facing neighbors but every one was paused or down (a fabric-wide
// PFC storm or mass failure), so there was structurally nothing to try —
// distinct from kNoDetourAvailable, where live candidates existed but all
// were full. All of them are terminal states the conservation ledger
// accepts.

#ifndef SRC_NET_DROP_REASON_H_
#define SRC_NET_DROP_REASON_H_

#include <cstddef>
#include <cstdint>

namespace dibs {

enum class DropReason : uint8_t {
  kQueueOverflow = 0,      // desired queue full, no DIBS (or a one-port switch)
  kNoDetourAvailable = 1,  // DIBS active but every eligible port was full
  kTtlExpired = 2,
  kNoRoute = 3,            // destination unreachable in the pristine topology
  kFaultLinkDown = 4,      // drained from / blackholed at a downed port
  kFaultSwitchDown = 5,    // arrived at a crashed switch
  kFaultLossy = 6,         // random loss on a degraded link
  kFaultNoLiveRoute = 7,   // routes exist but every next-hop link is down
  kGuardSuppressed = 8,    // breaker SUPPRESSED: detouring disabled on this switch
  kGuardTtlClamped = 9,    // adaptive TTL: detour budget exhausted under pressure
  kNoEligibleDetour = 10,  // every switch-facing port paused or down (PFC storm)
};

inline constexpr size_t kNumDropReasons = 11;

inline const char* DropReasonName(DropReason reason) {
  switch (reason) {
    case DropReason::kQueueOverflow:
      return "queue-overflow";
    case DropReason::kNoDetourAvailable:
      return "no-detour-available";
    case DropReason::kTtlExpired:
      return "ttl-expired";
    case DropReason::kNoRoute:
      return "no-route";
    case DropReason::kFaultLinkDown:
      return "fault-link-down";
    case DropReason::kFaultSwitchDown:
      return "fault-switch-down";
    case DropReason::kFaultLossy:
      return "fault-lossy";
    case DropReason::kFaultNoLiveRoute:
      return "fault-no-live-route";
    case DropReason::kGuardSuppressed:
      return "guard-suppressed";
    case DropReason::kGuardTtlClamped:
      return "guard-ttl-clamped";
    case DropReason::kNoEligibleDetour:
      return "no-eligible-detour";
  }
  return "?";
}

// True for the drop reasons introduced by the fault model — the "blackholed"
// population behind ScenarioResult's fault_drops and fault-touched flows.
inline bool IsFaultDrop(DropReason reason) {
  switch (reason) {
    case DropReason::kFaultLinkDown:
    case DropReason::kFaultSwitchDown:
    case DropReason::kFaultLossy:
    case DropReason::kFaultNoLiveRoute:
      return true;
    default:
      return false;
  }
}

}  // namespace dibs

#endif  // SRC_NET_DROP_REASON_H_
