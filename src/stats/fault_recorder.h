// Fault-impact instrumentation: which flows a fault touched and whether they
// eventually finished, and how long the network took to deliver again after
// each repair. How many packets died to faults, and why, is DetourRecorder's
// per-reason drop table.
//
// Sink half (kDrop, kHostDeliver): remembers the flows that lost a packet to
// a fault (DropReason::kFault*). Injector half: FaultInjector calls
// OnFaultApplied/OnFaultRepaired as it fires plan events; each repair opens a
// recovery window that the next network-wide delivery closes — "per-event
// recovery time" is repair -> first packet delivered anywhere afterwards.
// Scenario half: NoteFlowCompleted marks flows that finished, so at the end
// fault-touched flows split into recovered (completed anyway) vs stalled.

#ifndef SRC_STATS_FAULT_RECORDER_H_
#define SRC_STATS_FAULT_RECORDER_H_

#include <cstdint>
#include <set>
#include <vector>

#include "src/trace/trace_sink.h"

namespace dibs {

class FaultRecorder : public TraceSink {
 public:
  static constexpr TraceKindSet kKinds =
      TraceKinds({TraceEventType::kDrop, TraceEventType::kHostDeliver});

  void OnEvent(const TraceEvent& e) override;

  // FaultInjector hooks. "Applied" = something broke (down/crash/degrade);
  // "repaired" = something healed (up/restart/restore).
  void OnFaultApplied(Time at);
  void OnFaultRepaired(Time at);

  // Scenario wiring: flow `id` ran to completion.
  void NoteFlowCompleted(FlowId id);

  uint64_t events_applied() const { return applied_; }
  uint64_t events_repaired() const { return repaired_; }

  // Fault-touched flows that completed anyway (retransmission recovered
  // them) vs never completed within the run.
  uint64_t FlowsRecovered() const;
  uint64_t FlowsStalled() const { return fault_flows_.size() - FlowsRecovered(); }

  // Closed recovery windows, in repair order, in milliseconds.
  const std::vector<double>& recovery_ms() const { return recovery_ms_; }
  double MaxRecoveryMs() const;

 private:
  uint64_t applied_ = 0;
  uint64_t repaired_ = 0;
  std::vector<Time> open_repairs_;      // repairs awaiting the next delivery
  std::vector<double> recovery_ms_;
  // std::set: ordered, so any future iteration stays deterministic.
  std::set<FlowId> fault_flows_;        // flows that lost >= 1 packet to a fault
  std::set<FlowId> completed_flows_;
};

}  // namespace dibs

#endif  // SRC_STATS_FAULT_RECORDER_H_
