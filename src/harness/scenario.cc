#include "src/harness/scenario.h"

#include <signal.h>

#include <cstdlib>
#include <map>
#include <string>
#include <utility>

#include "src/device/invariant_checker.h"
#include "src/trace/flight_recorder.h"
#include "src/util/env.h"
#include "src/util/logging.h"
#include "src/util/validation.h"

namespace dibs {

namespace {

// Deterministic, test-only failure injection for the sweep engine's crash
// containment (src/exp/process_runner). Env-gated so tests and CI can
// exercise the crashed path without flaky timing: when DIBS_TEST_CRASH_RUN
// names this run's sweep matrix index, the run dies by a real SIGSEGV
// mid-run. Never set in production sweeps.
void MaybeInjectTestFailure(int sweep_run_index, Simulator* sim, Time crash_at) {
  if (sweep_run_index < 0) {
    return;
  }
  if (env::Int("DIBS_TEST_CRASH_RUN", -1, -1) == sweep_run_index) {
    // The SIGSEGV fires mid-run (sim time), not at startup, so an armed
    // flight-recorder dump captures the events leading up to the fault —
    // the whole point of a crash dump.
    sim->Schedule(crash_at, [] {
      // Restore the default disposition first so the process dies by the
      // signal even under ASan (which installs its own SEGV reporter) —
      // unless a flight-recorder crash dump is armed: its handler must run
      // first (it re-raises with the default disposition restored, so the
      // process still dies by SIGSEGV either way).
      if (!CrashDumpArmed()) {
        ::signal(SIGSEGV, SIG_DFL);
      }
      ::raise(SIGSEGV);
    });
  }
}

}  // namespace

Scenario::Scenario(const ExperimentConfig& config)
    : config_(config), stats_(/*faults=*/!config.faults.empty()) {
  sim_ = std::make_unique<Simulator>(config_.seed);
  network_ = std::make_unique<Network>(sim_.get(), BuildTopology(config_), config_.net);
  network_->Subscribe(&stats_, stats_.kinds());
  if (config_.net.guard.watchdog) {
    // Goodput signal: flow completions, not raw delivered packets. Deep in
    // the fig14 regime the downlinks stay saturated — delivered packets per
    // window never dip — but the packets stop finishing flows (retransmit
    // thrash + detour storms), which is exactly the collapse the watchdog
    // exists to catch. flows_ is constructed later in this ctor; the
    // callback only fires once Run() starts the watchdog.
    collapse_watchdog_ = std::make_unique<CollapseWatchdog>(
        sim_.get(), [this] { return flows_->flows_completed(); });
  }
  // Tracing attaches before any traffic exists so host-send events are never
  // missed.
  if (config_.trace.enabled) {
    trace_ = std::make_unique<TraceSession>(config_.trace, config_.sweep_run_index);
    network_->Subscribe(trace_->bus());
  }
  if (!config_.faults.empty()) {
    fault_injector_ =
        std::make_unique<fault::FaultInjector>(network_.get(), config_.faults, &stats_);
  }
  flows_ = std::make_unique<FlowManager>(network_.get(), config_.transport, config_.tcp,
                                         config_.pfabric);

  if (config_.enable_background) {
    BackgroundWorkload::Options opts;
    opts.mean_interarrival = config_.bg_interarrival;
    opts.stop_time = config_.duration;
    // Workload streams derive from the experiment seed but stay independent
    // of forwarding-path randomness, so scheme comparisons share workloads.
    opts.seed = config_.seed * 0x9E3779B97F4A7C15ull + 1;
    background_ = std::make_unique<BackgroundWorkload>(
        network_.get(), flows_.get(), opts, WebSearchFlowSizes(),
        [this](const FlowResult& r) { stats_.OnFlow(r); });
  }

  if (config_.enable_query) {
    QueryWorkload::Options opts;
    opts.qps = config_.qps;
    opts.degree = config_.incast_degree;
    opts.response_bytes = config_.response_bytes;
    opts.stop_time = config_.duration;
    opts.seed = config_.seed * 0x9E3779B97F4A7C15ull + 2;
    opts.on_flow_complete = [this](const FlowResult& r) { stats_.OnFlow(r); };
    query_ = std::make_unique<QueryWorkload>(
        network_.get(), flows_.get(), opts,
        [this](const QueryResult& r) { stats_.OnQuery(r); });
  }

  if (config_.monitor_interval > Time::Zero()) {
    monitor_ = std::make_unique<FabricMonitor>(network_.get(), config_.monitor_interval);
  }
}

Scenario::~Scenario() = default;

ScenarioResult Scenario::Run() {
  MaybeInjectTestFailure(config_.sweep_run_index, sim_.get(), config_.duration / 2);
  if (fault_injector_ != nullptr) {
    fault_injector_->Start();
  }
  if (background_ != nullptr) {
    background_->Start();
  }
  if (query_ != nullptr) {
    query_->Start();
  }
  if (network_->guard() != nullptr) {
    network_->guard()->Start(config_.duration + config_.drain);
  }
  if (collapse_watchdog_ != nullptr) {
    // Only watch while load is offered: the drain phase legitimately decays
    // to zero goodput and must not read as collapse.
    collapse_watchdog_->Start(config_.duration);
  }

  try {
    sim_->RunUntil(config_.duration + config_.drain);

    // DIBS_VALIDATE: the conservation ledger must balance at the cutoff —
    // every injected packet is delivered, dropped, buffered in a queue, or on
    // a wire — and, when the event queue fully drained, balance to zero
    // (nothing buffered, nothing in flight). Throws ValidationError otherwise.
    if (InvariantChecker* checker = network_->invariant_checker(); checker != nullptr) {
      checker->CheckBalanced(network_->TotalBufferedPackets());
      if (sim_->pending_events() == 0) {
        checker->CheckQuiescent();
      }
    }
  } catch (const ValidationError&) {
    // Dump the flight recorder before the error propagates: the last N
    // events around the violation are exactly what debugging needs.
    if (trace_ != nullptr) {
      trace_->DumpFlight();
    }
    throw;
  }

  if (monitor_ != nullptr) {
    monitor_->Finish();
  }
  if (trace_ != nullptr) {
    std::map<int32_t, std::string> node_names;
    for (const TopoNode& n : network_->topology().nodes()) {
      node_names[n.id] = n.name;
    }
    trace_->Finish(node_names);
  }

  ScenarioResult r;
  // Each 99th percentile is its summary's p99: both sort the same values.
  r.qct = stats_.QctSummary();
  r.bg_fct_short = stats_.ShortBackgroundFctSummary();
  r.qct99_ms = r.qct.p99;
  r.bg_fct99_ms = r.bg_fct_short.p99;
  r.bg_fct99_all_ms = stats_.BackgroundFct99Ms();
  r.queries_completed = query_ != nullptr ? query_->queries_completed() : 0;
  r.queries_launched = query_ != nullptr ? query_->queries_launched() : 0;
  r.flows_completed = flows_->flows_completed();
  r.flows_started = flows_->flows_started();
  r.drops = network_->total_drops();
  r.ttl_drops = network_->drops(DropReason::kTtlExpired);
  const auto& by_reason = network_->drops_by_reason();
  r.drops_by_reason.assign(by_reason.begin(), by_reason.end());
  for (size_t i = 0; i < kNumDropReasons; ++i) {
    if (IsFaultDrop(static_cast<DropReason>(i))) {
      r.fault_drops += by_reason[i];
    }
  }
  if (fault_injector_ != nullptr) {
    r.fault_events_applied = fault_injector_->events_applied();
    r.fault_flows_stalled = stats_.FlowsStalled();
    r.fault_flows_recovered = stats_.FlowsRecovered();
    r.fault_recovery_ms_max = stats_.max_recovery_ms();
  }
  r.detours = network_->total_detours();
  r.delivered_packets = network_->total_delivered();
  r.detoured_fraction = r.delivered_packets == 0
                            ? 0.0
                            : static_cast<double>(stats_.delivered_with_detours()) /
                                  static_cast<double>(r.delivered_packets);
  r.query_detour_share = r.detours == 0 ? 0.0
                                        : static_cast<double>(stats_.query_detours()) /
                                              static_cast<double>(r.detours);
  r.detour_count_p99 = stats_.DetourCountQuantile(0.99);
  r.queueing_delay_us = stats_.QueueingDelaySummary();
  r.loop_packets = trace_ != nullptr ? trace_->journeys().loop_packets() : 0;
  r.retransmits = stats_.retransmits();
  r.timeouts = stats_.timeouts();
  r.guard_trips = stats_.guard_trips();
  r.guard_transitions = stats_.guard_transitions();
  r.guard_suppressed_drops = network_->drops(DropReason::kGuardSuppressed);
  r.guard_ttl_clamped_drops = network_->drops(DropReason::kGuardTtlClamped);
  r.guard_time_suppressed_ms = stats_.SuppressedMsUpTo(sim_->Now());
  if (collapse_watchdog_ != nullptr) {
    r.collapse_detected = collapse_watchdog_->collapse_detected();
    r.collapse_onset_ms = collapse_watchdog_->collapse_onset_ms();
  }
  if (monitor_ != nullptr) {
    r.hot_fractions = monitor_->hot_fractions();
    r.relative_hot_fractions = monitor_->relative_hot_fractions();
    r.one_hop_free = monitor_->one_hop_free_fractions();
    r.two_hop_free = monitor_->two_hop_free_fractions();
  }
  r.events_processed = sim_->events_processed();
  return r;
}

ScenarioResult RunScenario(const ExperimentConfig& config) {
  Scenario scenario(config);
  return scenario.Run();
}

std::string FormatDropBreakdown(const std::vector<uint64_t>& drops_by_reason) {
  std::string out;
  for (size_t i = 0; i < drops_by_reason.size() && i < kNumDropReasons; ++i) {
    // ttl-expired is reported even at zero: it is the aggregate loop-death
    // figure that trace-derived loop counts get cross-checked against. The
    // guard reasons follow the same convention so "guarded but never
    // tripped" reads differently from "not guarded at all".
    const auto reason = static_cast<DropReason>(i);
    const bool always_shown = reason == DropReason::kTtlExpired ||
                              reason == DropReason::kGuardSuppressed ||
                              reason == DropReason::kGuardTtlClamped;
    if (drops_by_reason[i] == 0 && !always_shown) {
      continue;
    }
    if (!out.empty()) {
      out += ';';
    }
    out += std::string(DropReasonName(static_cast<DropReason>(i))) + "=" +
           std::to_string(drops_by_reason[i]);
  }
  return out.empty() ? "none" : out;
}

}  // namespace dibs
