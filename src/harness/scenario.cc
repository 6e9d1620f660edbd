#include "src/harness/scenario.h"

#include <signal.h>
#include <unistd.h>

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
// containment and hard watchdog (src/exp/process_runner). Env-gated so
// tests and CI can exercise the crashed/watchdog paths without flaky
// timing: when DIBS_TEST_CRASH_RUN (resp. DIBS_TEST_HANG_RUN) names this
// run's sweep matrix index, the run dies by a real SIGSEGV mid-run (resp.
// wedges outside the simulator event loop, where the cooperative interrupt
// check can never fire). Never set in production sweeps.
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
  if (env::Int("DIBS_TEST_HANG_RUN", -1, -1) == sweep_run_index) {
    while (true) {
      ::sleep(1);  // only a hard watchdog (SIGKILL) gets a run out of here
    }
  }
}

}  // namespace

Scenario::Scenario(const ExperimentConfig& config) : config_(config) {
  sim_ = std::make_unique<Simulator>(config_.seed);
  network_ = std::make_unique<Network>(sim_.get(), BuildTopology(config_), config_.net);
  network_->Subscribe(&detour_recorder_, DetourRecorder::kKinds);
  network_->Subscribe(&guard_recorder_, GuardRecorder::kKinds);
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
  // missed. The env overlay lets sweeps/CI trace without touching configs.
  if (TraceConfig tcfg = ApplyTraceEnv(config_.trace); tcfg.enabled) {
    trace_ = std::make_unique<TraceSession>(tcfg, config_.sweep_run_index);
    network_->Subscribe(trace_->bus());
  }
  if (!config_.faults.empty()) {
    network_->Subscribe(&fault_recorder_, FaultRecorder::kKinds);
    fault_injector_ = std::make_unique<fault::FaultInjector>(network_.get(), config_.faults,
                                                             &fault_recorder_);
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
        network_.get(), flows_.get(), opts, WebSearchFlowSizes(), [this](const FlowResult& r) {
          recorder_.RecordFlow(r);
          fault_recorder_.NoteFlowCompleted(r.spec.id);
        });
  }

  if (config_.enable_query) {
    QueryWorkload::Options opts;
    opts.qps = config_.qps;
    opts.degree = config_.incast_degree;
    opts.response_bytes = config_.response_bytes;
    opts.stop_time = config_.duration;
    opts.seed = config_.seed * 0x9E3779B97F4A7C15ull + 2;
    opts.on_flow_complete = [this](const FlowResult& r) {
      recorder_.RecordFlow(r);
      fault_recorder_.NoteFlowCompleted(r.spec.id);
    };
    query_ = std::make_unique<QueryWorkload>(
        network_.get(), flows_.get(), opts,
        [this](const QueryResult& r) { recorder_.RecordQuery(r); });
  }

  if (config_.monitor_links) {
    LinkMonitor::Options opts;
    opts.interval = config_.link_interval;
    opts.hot_threshold = config_.hot_threshold;
    opts.stop_time = config_.duration + config_.drain;
    link_monitor_ = std::make_unique<LinkMonitor>(network_.get(), opts);
  }
  if (config_.monitor_buffers) {
    BufferMonitor::Options opts;
    opts.interval = config_.buffer_interval;
    opts.stop_time = config_.duration + config_.drain;
    buffer_monitor_ = std::make_unique<BufferMonitor>(network_.get(), std::move(opts));
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
  if (link_monitor_ != nullptr) {
    link_monitor_->Start();
  }
  if (buffer_monitor_ != nullptr) {
    buffer_monitor_->Start();
  }
  if (network_->guard() != nullptr) {
    network_->guard()->Start(config_.duration + config_.drain);
  }
  if (collapse_watchdog_ != nullptr) {
    // Only watch while load is offered: the drain phase legitimately decays
    // to zero goodput and must not read as collapse.
    collapse_watchdog_->Start(config_.duration, CollapseWatchdog::ReadStrictCollapseEnv());
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
  } catch (const CollapseError&) {
    // Strict-mode collapse abort: the events leading into the collapse are
    // as valuable as they are for an invariant violation.
    if (trace_ != nullptr) {
      trace_->DumpFlight();
    }
    throw;
  }

  if (trace_ != nullptr) {
    std::map<int32_t, std::string> node_names;
    for (const TopoNode& n : network_->topology().nodes()) {
      node_names[n.id] = n.name;
    }
    trace_->Finish(node_names);
  }

  ScenarioResult r;
  r.qct99_ms = recorder_.Qct99Ms();
  r.bg_fct99_ms = recorder_.ShortBackgroundFct99Ms();
  r.bg_fct99_all_ms = Percentile(recorder_.BackgroundFctMs(), 99);
  r.qct = recorder_.QctSummary();
  r.bg_fct_short = recorder_.ShortBackgroundFctSummary();
  r.queries_completed = query_ != nullptr ? query_->queries_completed() : 0;
  r.queries_launched = query_ != nullptr ? query_->queries_launched() : 0;
  r.flows_completed = flows_->flows_completed();
  r.flows_started = flows_->flows_started();
  r.drops = network_->total_drops();
  r.ttl_drops = detour_recorder_.drops(DropReason::kTtlExpired);
  const auto& by_reason = detour_recorder_.drops_by_reason();
  r.drops_by_reason.assign(by_reason.begin(), by_reason.end());
  r.fault_drops = detour_recorder_.fault_drops();
  if (fault_injector_ != nullptr) {
    r.fault_events_applied = fault_injector_->events_applied();
    r.fault_flows_stalled = fault_recorder_.FlowsStalled();
    r.fault_flows_recovered = fault_recorder_.FlowsRecovered();
    r.fault_recovery_ms_max = fault_recorder_.MaxRecoveryMs();
  }
  r.detours = network_->total_detours();
  r.delivered_packets = network_->total_delivered();
  r.detoured_fraction =
      r.delivered_packets == 0
          ? 0.0
          : static_cast<double>(detour_recorder_.delivered_with_detours()) /
                static_cast<double>(r.delivered_packets);
  r.query_detour_share =
      r.detours == 0 ? 0.0
                     : static_cast<double>(detour_recorder_.query_detours()) /
                           static_cast<double>(r.detours);
  r.detour_count_p99 = detour_recorder_.DetourCountQuantile(0.99);
  r.queueing_delay_us = detour_recorder_.QueueingDelaySummary();
  r.loop_packets = trace_ != nullptr ? trace_->journeys().loop_packets() : 0;
  r.retransmits = recorder_.total_retransmits();
  r.timeouts = recorder_.total_timeouts();
  r.guard_trips = guard_recorder_.trips();
  r.guard_transitions = guard_recorder_.transition_count();
  r.guard_suppressed_drops = detour_recorder_.drops(DropReason::kGuardSuppressed);
  r.guard_ttl_clamped_drops = detour_recorder_.drops(DropReason::kGuardTtlClamped);
  r.guard_time_suppressed_ms = guard_recorder_.SuppressedMsUpTo(sim_->Now());
  if (collapse_watchdog_ != nullptr) {
    r.collapse_detected = collapse_watchdog_->collapse_detected();
    r.collapse_onset_ms = collapse_watchdog_->collapse_onset_ms();
  }
  if (link_monitor_ != nullptr) {
    r.hot_fractions = link_monitor_->hot_fractions();
    r.relative_hot_fractions = link_monitor_->relative_hot_fractions();
  }
  if (buffer_monitor_ != nullptr) {
    r.one_hop_free = buffer_monitor_->one_hop_free_fractions();
    r.two_hop_free = buffer_monitor_->two_hop_free_fractions();
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
