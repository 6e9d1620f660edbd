#include "src/stats/fault_recorder.h"

#include <algorithm>

namespace dibs {

void FaultRecorder::OnEvent(const TraceEvent& e) {
  if (e.type == TraceEventType::kDrop) {
    if (IsFaultDrop(static_cast<DropReason>(e.drop_reason))) {
      fault_flows_.insert(e.flow);
    }
    return;
  }
  if (open_repairs_.empty()) {
    return;
  }
  // First delivery anywhere after a repair closes every pending window: the
  // network is demonstrably moving traffic end-to-end again.
  for (Time repaired_at : open_repairs_) {
    recovery_ms_.push_back((e.at - repaired_at).ToMillis());
  }
  open_repairs_.clear();
}

void FaultRecorder::OnFaultApplied(Time at) { ++applied_; }

void FaultRecorder::OnFaultRepaired(Time at) {
  ++repaired_;
  open_repairs_.push_back(at);
}

void FaultRecorder::NoteFlowCompleted(FlowId id) { completed_flows_.insert(id); }

uint64_t FaultRecorder::FlowsRecovered() const {
  uint64_t recovered = 0;
  for (FlowId id : fault_flows_) {
    if (completed_flows_.count(id) > 0) {
      ++recovered;
    }
  }
  return recovered;
}

double FaultRecorder::MaxRecoveryMs() const {
  double max_ms = 0;
  for (double ms : recovery_ms_) {
    max_ms = std::max(max_ms, ms);
  }
  return max_ms;
}

}  // namespace dibs
