// ScenarioRunner: builds a full simulation from an ExperimentConfig, runs
// it, and collects the metrics every figure reports. One call = one line on
// one figure.

#ifndef SRC_HARNESS_SCENARIO_H_
#define SRC_HARNESS_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "src/device/network.h"
#include "src/fault/fault_injector.h"
#include "src/guard/collapse_watchdog.h"
#include "src/harness/config.h"
#include "src/sim/simulator.h"
#include "src/stats/buffer_monitor.h"
#include "src/stats/detour_recorder.h"
#include "src/stats/fault_recorder.h"
#include "src/stats/flow_recorder.h"
#include "src/stats/guard_recorder.h"
#include "src/stats/link_monitor.h"
#include "src/trace/trace_session.h"
#include "src/transport/flow_manager.h"
#include "src/util/stats_util.h"
#include "src/workload/background.h"
#include "src/workload/query.h"

namespace dibs {

struct ScenarioResult {
  // Headline metrics (§5.3): 99th percentile QCT and short-background FCT.
  double qct99_ms = 0;
  double bg_fct99_ms = 0;       // 99th FCT of short (1-10KB) background flows
  double bg_fct99_all_ms = 0;   // 99th FCT across ALL background flows
  Summary qct;
  Summary bg_fct_short;

  uint64_t queries_completed = 0;
  uint64_t queries_launched = 0;
  uint64_t flows_completed = 0;
  uint64_t flows_started = 0;

  uint64_t drops = 0;
  uint64_t ttl_drops = 0;
  // Per-reason drop breakdown, indexed by DropReason (size kNumDropReasons).
  std::vector<uint64_t> drops_by_reason;
  // Fault impact (zero on healthy runs).
  uint64_t fault_drops = 0;           // packets killed by any fault
  uint64_t fault_events_applied = 0;  // plan events that fired
  uint64_t fault_flows_stalled = 0;   // fault-touched flows that never finished
  uint64_t fault_flows_recovered = 0; // fault-touched flows that finished anyway
  double fault_recovery_ms_max = 0;   // slowest repair -> next delivery
  uint64_t detours = 0;
  uint64_t delivered_packets = 0;
  double detoured_fraction = 0;      // fraction of delivered packets detoured
  double query_detour_share = 0;     // detours belonging to query traffic
  double detour_count_p99 = 0;       // per-packet detour-count 99th pct (§5.4.4)
  // Per-hop queueing delay in µs across every dequeue (host NICs included).
  // count/mean/min/max exact, percentiles histogram-approximate. Always
  // populated — DetourRecorder reads it off kDequeue, with or without a
  // trace bus.
  Summary queueing_delay_us;
  // Packets whose reconstructed journey revisited a node (forwarding loops,
  // the failure mode TTL exists to bound). Zero unless tracing was enabled;
  // cross-check against ttl_drops above.
  uint64_t loop_packets = 0;
  uint64_t retransmits = 0;
  uint64_t timeouts = 0;

  // Overload guard (src/guard; zero when the guard is off).
  uint64_t guard_trips = 0;             // ARMED -> SUPPRESSED breaker edges
  uint64_t guard_transitions = 0;       // all breaker transitions
  uint64_t guard_suppressed_drops = 0;  // drops_by_reason[guard-suppressed]
  uint64_t guard_ttl_clamped_drops = 0; // drops_by_reason[guard-ttl-clamped]
  double guard_time_suppressed_ms = 0;  // sim-ms suppressed, summed over switches
  // Collapse watchdog (zero/false when the watchdog is off).
  bool collapse_detected = false;
  double collapse_onset_ms = 0;         // sim-ms of detection; 0 = none

  // Monitor outputs (populated when the corresponding monitor was enabled).
  std::vector<double> hot_fractions;
  std::vector<double> relative_hot_fractions;
  std::vector<double> one_hop_free;
  std::vector<double> two_hop_free;

  uint64_t events_processed = 0;

  // Calls visit(key, field) for every field, in record order; the run-record
  // codec and the CSV sink walk this list (src/exp/record_codec.h). `Self`
  // is ScenarioResult or const ScenarioResult.
  template <typename Self, typename Visit>
  static void ForEachField(Self& self, Visit&& visit) {
    visit("qct99_ms", self.qct99_ms);
    visit("bg_fct99_ms", self.bg_fct99_ms);
    visit("bg_fct99_all_ms", self.bg_fct99_all_ms);
    visit("qct", self.qct);
    visit("bg_fct_short", self.bg_fct_short);
    visit("queries_completed", self.queries_completed);
    visit("queries_launched", self.queries_launched);
    visit("flows_completed", self.flows_completed);
    visit("flows_started", self.flows_started);
    visit("drops", self.drops);
    visit("ttl_drops", self.ttl_drops);
    visit("drops_by_reason", self.drops_by_reason);
    visit("fault_drops", self.fault_drops);
    visit("fault_events_applied", self.fault_events_applied);
    visit("fault_flows_stalled", self.fault_flows_stalled);
    visit("fault_flows_recovered", self.fault_flows_recovered);
    visit("fault_recovery_ms_max", self.fault_recovery_ms_max);
    visit("detours", self.detours);
    visit("delivered_packets", self.delivered_packets);
    visit("detoured_fraction", self.detoured_fraction);
    visit("query_detour_share", self.query_detour_share);
    visit("detour_count_p99", self.detour_count_p99);
    visit("queueing_delay_us", self.queueing_delay_us);
    visit("loop_packets", self.loop_packets);
    visit("retransmits", self.retransmits);
    visit("timeouts", self.timeouts);
    visit("guard_trips", self.guard_trips);
    visit("guard_transitions", self.guard_transitions);
    visit("guard_suppressed_drops", self.guard_suppressed_drops);
    visit("guard_ttl_clamped_drops", self.guard_ttl_clamped_drops);
    visit("guard_time_suppressed_ms", self.guard_time_suppressed_ms);
    visit("collapse_detected", self.collapse_detected);
    visit("collapse_onset_ms", self.collapse_onset_ms);
    visit("hot_fractions", self.hot_fractions);
    visit("relative_hot_fractions", self.relative_hot_fractions);
    visit("one_hop_free", self.one_hop_free);
    visit("two_hop_free", self.two_hop_free);
    visit("events_processed", self.events_processed);
  }
};

// Owns the whole simulation; keeps everything alive so callers can inspect
// components after Run() (the figure-2 bench reads monitors directly).
class Scenario {
 public:
  explicit Scenario(const ExperimentConfig& config);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  // Runs to completion (duration + drain) and returns the metrics.
  // Test-only: when $DIBS_TEST_CRASH_RUN / $DIBS_TEST_HANG_RUN name this
  // run's config.sweep_run_index, Run() segfaults / hangs instead —
  // deterministic fodder for the sweep engine's crash-containment tests.
  ScenarioResult Run();

  Simulator& sim() { return *sim_; }
  Network& network() { return *network_; }
  FlowManager& flows() { return *flows_; }
  FlowRecorder& recorder() { return recorder_; }
  DetourRecorder& detours() { return detour_recorder_; }
  FaultRecorder& faults() { return fault_recorder_; }
  // Null unless config.net.guard.watchdog was set.
  CollapseWatchdog* collapse_watchdog() { return collapse_watchdog_.get(); }
  LinkMonitor* link_monitor() { return link_monitor_.get(); }
  BufferMonitor* buffer_monitor() { return buffer_monitor_.get(); }
  // Null unless tracing was enabled (config.trace / DIBS_TRACE* env).
  TraceSession* trace() { return trace_.get(); }
  const ExperimentConfig& config() const { return config_; }

 private:
  ExperimentConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<FlowManager> flows_;
  FlowRecorder recorder_;
  DetourRecorder detour_recorder_;
  FaultRecorder fault_recorder_;
  GuardRecorder guard_recorder_;
  std::unique_ptr<CollapseWatchdog> collapse_watchdog_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  std::unique_ptr<BackgroundWorkload> background_;
  std::unique_ptr<QueryWorkload> query_;
  std::unique_ptr<LinkMonitor> link_monitor_;
  std::unique_ptr<BufferMonitor> buffer_monitor_;
  std::unique_ptr<TraceSession> trace_;
};

// Convenience: build, run, return.
ScenarioResult RunScenario(const ExperimentConfig& config);

// Human-readable drop breakdown for table cells and log lines:
// "ttl-expired=0;queue-overflow=12;fault-link-down=3". Nonzero reasons only,
// in reason order — except ttl-expired, guard-suppressed, and
// guard-ttl-clamped, which are always present (even at zero): ttl-expired so
// trace-derived loop counts have an explicit TTL-death figure to cross-check
// against, and the guard pair so a guarded run that never tripped is
// visibly distinct from an unguarded run.
std::string FormatDropBreakdown(const std::vector<uint64_t>& drops_by_reason);

}  // namespace dibs

#endif  // SRC_HARNESS_SCENARIO_H_
