#include "src/stats/run_stats.h"

#include <algorithm>

#include "src/net/drop_reason.h"

namespace dibs {

void RunStats::OnEvent(const TraceEvent& e) {
  switch (e.type) {
    case TraceEventType::kDetour:
      if (e.tclass == static_cast<uint8_t>(TrafficClass::kQuery)) {
        ++query_detours_;
      }
      break;
    case TraceEventType::kDequeue: {
      // Exact per-hop delay from the admission stamp the Port wrote.
      const double us = (e.at - e.enqueued_at).ToMicros();
      if (queueing_delay_us_.total() == 0 || us < queueing_min_us_) {
        queueing_min_us_ = us;
      }
      queueing_delay_us_.Add(us);
      queueing_sum_us_ += us;
      break;
    }
    case TraceEventType::kHostDeliver:
      if (e.detour_count > 0) {
        ++delivered_with_detours_;
      }
      delivered_detours_.Add(e.detour_count);
      // The first delivery anywhere after a repair closes every pending
      // window; the earliest pending repair has the longest one.
      if (open_repair_.has_value()) {
        max_recovery_ms_ = std::max(max_recovery_ms_, (e.at - *open_repair_).ToMillis());
        open_repair_.reset();
      }
      break;
    case TraceEventType::kGuardTransition: {
      // The from/to states ride the event's port/queue_depth fields.
      const auto from = static_cast<GuardState>(e.port);
      const auto to = static_cast<GuardState>(e.queue_depth);
      ++guard_transitions_;
      if (from == GuardState::kArmed && to == GuardState::kSuppressed) {
        ++guard_trips_;
      }
      // Accumulate dwell in the state being left.
      auto [it, inserted] = guard_state_.try_emplace(e.node, GuardSpan{from, Time()});
      if (it->second.state == GuardState::kSuppressed) {
        suppressed_total_ = suppressed_total_ + (e.at - it->second.since);
      }
      it->second = {to, e.at};
      break;
    }
    case TraceEventType::kDrop:
      if (IsFaultDrop(static_cast<DropReason>(e.drop_reason))) {
        fault_flows_.insert(e.flow);
      }
      break;
    default:
      break;
  }
}

void RunStats::OnFlow(const FlowResult& r) {
  if (r.spec.traffic_class == TrafficClass::kBackground) {
    bg_fct_ms_.push_back(r.fct.ToMillis());
    if (r.spec.size_bytes >= 1000 && r.spec.size_bytes <= 10000) {
      short_bg_fct_ms_.push_back(r.fct.ToMillis());
    }
  }
  retransmits_ += r.retransmits;
  timeouts_ += r.timeouts;
  if (faults_) {
    completed_flows_.insert(r.spec.id);
  }
}

void RunStats::OnFaultRepaired(Time at) {
  if (!open_repair_.has_value()) {
    open_repair_ = at;
  }
}

Summary RunStats::QueueingDelaySummary() const {
  Summary s;
  s.count = queueing_delay_us_.total();
  if (s.count == 0) {
    return s;
  }
  s.mean = queueing_sum_us_ / static_cast<double>(s.count);
  s.min = queueing_min_us_;
  s.max = queueing_delay_us_.max_seen();  // every delay is >= 0
  s.p50 = queueing_delay_us_.ApproxQuantile(0.50);
  s.p90 = queueing_delay_us_.ApproxQuantile(0.90);
  s.p99 = queueing_delay_us_.ApproxQuantile(0.99);
  s.p999 = queueing_delay_us_.ApproxQuantile(0.999);
  return s;
}

double RunStats::SuppressedMsUpTo(Time end) const {
  Time total = suppressed_total_;
  for (const auto& [node, span] : guard_state_) {
    if (span.state == GuardState::kSuppressed && end > span.since) {
      total = total + (end - span.since);
    }
  }
  return total.ToMillis();
}

uint64_t RunStats::FlowsRecovered() const {
  uint64_t recovered = 0;
  for (FlowId id : fault_flows_) {
    recovered += completed_flows_.count(id);
  }
  return recovered;
}

}  // namespace dibs
