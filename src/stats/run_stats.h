// Per-run statistics: every ScenarioResult number that comes from the event
// stream, from completed flows and queries, or from fault repairs. One
// read-only TraceSink that Scenario subscribes once:
//  * §5.3's 99th-percentile QCT and short (1-10KB) background FCT;
//  * §5.4.4's per-packet detour counts, the detoured share of deliveries and
//    of query traffic, and per-hop queueing delay;
//  * the overload guard's trips, transitions and suppressed time;
//  * fault impact: the flows a fault drop touched (kDrop is heard only when
//    the run has a fault plan), whether they finished anyway, and the
//    slowest repair -> next delivery anywhere.
// Drop counts by reason are Network's; fault events applied are
// FaultInjector's. RunStats schedules nothing and never writes back, so a
// run is bit-identical whatever it subscribes to.

#ifndef SRC_STATS_RUN_STATS_H_
#define SRC_STATS_RUN_STATS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/guard/guard_config.h"
#include "src/trace/trace_sink.h"
#include "src/transport/flow.h"
#include "src/util/histogram.h"
#include "src/util/stats_util.h"
#include "src/workload/query.h"

namespace dibs {

class RunStats : public TraceSink {
 public:
  // `faults`: the run has a fault plan, so kinds() adds kDrop and the ids of
  // completed flows are kept to split fault-touched flows.
  explicit RunStats(bool faults = false) : faults_(faults) {}

  // The kinds to subscribe this sink to.
  TraceKindSet kinds() const {
    return TraceKinds({TraceEventType::kDetour, TraceEventType::kDequeue,
                       TraceEventType::kHostDeliver, TraceEventType::kGuardTransition}) |
           (faults_ ? TraceKinds({TraceEventType::kDrop}) : 0);
  }

  void OnEvent(const TraceEvent& e) override;

  // Workload completion callbacks. Long-lived flows never report here;
  // §5.6 measures their goodput.
  void OnFlow(const FlowResult& r);
  void OnQuery(const QueryResult& r) { qct_ms_.push_back(r.qct.ToMillis()); }

  // FaultInjector: something healed (link up, switch restart, link restore)
  // at `at`. The next delivery anywhere closes the recovery window.
  void OnFaultRepaired(Time at);

  // ---- Flows and queries (ms) ----
  Summary QctSummary() const { return Summarize(qct_ms_); }
  Summary ShortBackgroundFctSummary() const { return Summarize(short_bg_fct_ms_); }
  double BackgroundFct99Ms() const { return Percentile(bg_fct_ms_, 99); }
  uint64_t retransmits() const { return retransmits_; }
  uint64_t timeouts() const { return timeouts_; }

  // ---- Detours; the detour and delivery totals are Network's ----
  uint64_t query_detours() const { return query_detours_; }
  uint64_t delivered_with_detours() const { return delivered_with_detours_; }
  // Detour count exceeded by at most (1 - fraction) of delivered packets,
  // e.g. 0.99 -> "1% of packets are detoured N times or more" (§5.4.4).
  double DetourCountQuantile(double fraction) const {
    return delivered_detours_.ApproxQuantile(fraction);
  }
  // Per-hop queueing delay (µs) over every dequeue, host NICs included.
  // count/mean/min/max are exact; percentiles are histogram-approximate
  // (2 µs buckets, ~16 ms range).
  Summary QueueingDelaySummary() const;

  // ---- Overload guard ----
  uint64_t guard_trips() const { return guard_trips_; }  // ARMED -> SUPPRESSED
  uint64_t guard_transitions() const { return guard_transitions_; }
  // Sim time switches spent SUPPRESSED, summed over switches, up to `end`
  // (breakers still open at `end` count their open stretch).
  double SuppressedMsUpTo(Time end) const;

  // ---- Faults ----
  // Fault-touched flows that completed anyway (retransmission recovered
  // them) vs never completed within the run.
  uint64_t FlowsRecovered() const;
  uint64_t FlowsStalled() const { return fault_flows_.size() - FlowsRecovered(); }
  double max_recovery_ms() const { return max_recovery_ms_; }

 private:
  const bool faults_;

  std::vector<double> qct_ms_;
  std::vector<double> bg_fct_ms_;        // every background flow
  std::vector<double> short_bg_fct_ms_;  // background flows of 1-10KB
  uint64_t retransmits_ = 0;
  uint64_t timeouts_ = 0;

  uint64_t query_detours_ = 0;
  uint64_t delivered_with_detours_ = 0;
  Histogram delivered_detours_{1.0, 128};
  // 2 µs buckets, ~16 ms + overflow; its total and max_seen are exact.
  Histogram queueing_delay_us_{2.0, 8192};
  double queueing_sum_us_ = 0;
  double queueing_min_us_ = 0;

  struct GuardSpan {
    GuardState state = GuardState::kArmed;
    Time since;
  };
  std::map<int, GuardSpan> guard_state_;  // per switch: current state
  Time suppressed_total_;
  uint64_t guard_transitions_ = 0;
  uint64_t guard_trips_ = 0;

  // std::set: ordered, so any future iteration stays deterministic.
  std::set<FlowId> fault_flows_;      // flows that lost >= 1 packet to a fault
  std::set<FlowId> completed_flows_;  // kept only when faults_
  std::optional<Time> open_repair_;   // earliest repair awaiting a delivery
  double max_recovery_ms_ = 0;
};

}  // namespace dibs

#endif  // SRC_STATS_RUN_STATS_H_
