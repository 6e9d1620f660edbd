// dibs_perfbench: times the simulator from outside, through its public entry
// points only (presets, Scenario, SweepEngine, the record codec, RunJournal,
// and the Simulator/queue/Network calls the layer replays use).
//
//   dibs_perfbench --workload W --seed N --seconds S --trace 0|1 --out FILE
//                  [--tmp DIR] [--spans FILE] [--plant digest|status]
//
// Untraced (--trace 0): times the workload's setup many times, then repeats
// its timed call (Scenario::Run) until S seconds are spent, timing the speed
// probe (speed_probe.h) beside every setup and inside every run. Traced
// (--trace 1): one sweep-engine pass, then rounds of untraced + sampled runs
// of every cell, then the layer replays, each sized from the sampled run's
// own counts. Every attempt reports a digest of its canonical RunRecords;
// perfbench/run.py turns the raw result file into the benchmark's metrics
// and checks the digests.
//
// --plant makes the first attempt fail on purpose (a changed simulated
// result, or a run that does not finish ok); run.py's self-test uses it.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/replays.h"
#include "perfbench/speed_probe.h"
#include "src/chaos/oracles.h"
#include "src/exp/result_sink.h"
#include "src/exp/sweep_engine.h"
#include "src/exp/sweep_spec.h"
#include "src/harness/config.h"
#include "src/harness/scenario.h"
#include "src/net/drop_reason.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using dibs::ExperimentConfig;
using dibs::RunRecord;
using dibs::RunSpec;
using dibs::RunStatus;

constexpr int kSetupsPerAttempt = 8;  // Scenario constructions
constexpr int kMinAttempts = 3;
constexpr int kMaxAttempts = 1000;

// The CPUs this process may run on. On a shared host their speeds differ
// and drift, so single-threaded timed steps take them in turn, each pinned
// to one: a slow CPU then moves a few samples of every run instead of all
// samples of some runs, and the speed probes of a step time its own CPU.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof(all), &all) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &all)) {
          cpus_.push_back(c);
        }
      }
    }
  }

  // Pins the calling thread to the next CPU in turn.
  void Next() {
    if (cpus_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Shortest-exact JSON number.
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string tmp = ".";
  std::string spans;
  std::string plant;  // "", "digest" or "status"
};

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--out") {
      o.out = value;
    } else if (flag == "--tmp") {
      o.tmp = value;
    } else if (flag == "--spans") {
      o.spans = value;
    } else if (flag == "--plant") {
      o.plant = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || o.out.empty()) {
    throw std::invalid_argument("--workload and --out are required");
  }
  if (o.plant != "" && o.plant != "digest" && o.plant != "status") {
    throw std::invalid_argument("--plant must be digest or status");
  }
  return o;
}

// -------------------------------------------------------------- workloads

// Every workload is one cell: a SweepSpec without axes, timed through
// Scenario and, in the traced run, once through the sweep engine.
struct Workload {
  dibs::SweepSpec spec;
};

// Simulated windows are cut from the figure benches' so that one timed call
// takes about a second (several for overload_guard) on a 4-core x86 host.
ExperimentConfig Windowed(ExperimentConfig c, int duration_ms, int drain_ms) {
  c.duration = dibs::Time::Millis(duration_ms);
  c.drain = dibs::Time::Millis(drain_ms);
  return c;
}

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.spec.name = name;
  w.spec.seed = seed;
  if (name == "incast_dibs") {
    // fig11 cell: DCTCP+DIBS, 300 qps, degree 100, 20 KB, background on.
    ExperimentConfig c = dibs::DibsConfig();
    c.incast_degree = 100;
    w.spec.base = Windowed(c, 100, 50);
  } else if (name == "overload_guard") {
    // fig14 collapse-regime cell: guarded DIBS at 18000 qps, degree 40.
    ExperimentConfig c = dibs::DibsGuardConfig();
    c.qps = 18000;
    c.incast_degree = 40;
    c.net.guard.watchdog = true;
    w.spec.base = Windowed(c, 25, 15);
  } else if (name == "pfabric_incast") {
    // fig16 cell: pFabric at 2000 qps.
    ExperimentConfig c = dibs::PfabricExperimentConfig();
    c.qps = 2000;
    w.spec.base = Windowed(c, 80, 40);
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return w;
}

dibs::SweepOptions EngineOptions(const Options& opts) {
  dibs::SweepOptions o;
  o.jobs = 1;
  o.progress = false;
  o.isolate = dibs::IsolationMode::kThread;
  o.journal_path = opts.tmp + "/journal.jsonl";
  o.resume = 0;
  o.retry.max_attempts = 1;  // a failed run must count, not retry away
  return o;
}

// ---------------------------------------------------------------- digests

// FNV-1a 64 over each record's canonical encoding (host-time fields zeroed),
// newline-separated, in matrix order.
uint64_t Digest(const std::vector<RunRecord>& records, bool plant) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < records.size(); ++i) {
    RunRecord rec = records[i];
    if (plant && i == 0) {
      ++rec.result.delivered_packets;
    }
    for (const char c : dibs::chaos::CanonicalRecord(std::move(rec)) + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------- spans/sampler

// Host-time spans of the traced run, written to --spans when it ends.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int Open(const std::string& name, int parent, int rep) {
    spans_.push_back({name, Now(), -1, parent, rep});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[static_cast<size_t>(id)].end_us = Now(); }

  void Write(std::ostream& os) const {
    os << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n " : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"start_us\":" << Num(s.start_us) << ",\"end_us\":" << Num(s.end_us)
         << ",\"parent\":" << s.parent << ",\"rep\":" << s.rep << "}";
    }
    os << "]";
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
    int rep;
  };
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Pending-depth and progress sampler, polled by the simulator every 4096
// events through the interrupt check (which never interrupts).
class Sampler {
 public:
  struct Sample {
    double wall_s;
    int64_t sim_ns;
    uint64_t pending;
    uint64_t events;
  };

  Sampler() = default;
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Attach(dibs::Simulator& sim) {
    const Clock::time_point start = Clock::now();
    sim.SetInterruptCheck(
        [this, &sim, start] {
          // RunUntil re-polls while it skips cancelled events; keep one
          // sample per 4096-event mark.
          if (!samples_.empty() && samples_.back().events == sim.events_processed()) {
            return false;
          }
          samples_.push_back(
              {SecondsSince(start), sim.Now().nanos(), sim.pending_events(), sim.events_processed()});
          return false;
        },
        4096);
  }

  const std::vector<Sample>& samples() const { return samples_; }

 private:
  std::vector<Sample> samples_;
};

// Speed probes inside a timed run, polled by the simulator every
// kProbeEveryEvents events through the interrupt check (which never
// interrupts). The run's time minus wall_s() is the simulator's own.
class ProbeLog {
 public:
  ProbeLog() = default;
  ProbeLog(const ProbeLog&) = delete;
  ProbeLog& operator=(const ProbeLog&) = delete;

  void Attach(dibs::Simulator& sim) {
    sim.SetInterruptCheck(
        [this, &sim] {
          // RunUntil re-polls while it skips cancelled events; probe once
          // per mark.
          if (probes_ > 0 && last_events_ == sim.events_processed()) {
            return false;
          }
          last_events_ = sim.events_processed();
          const Clock::time_point start = Clock::now();
          probe_s_ += SpeedProbeSeconds();
          ++probes_;
          wall_s_ += SecondsSince(start);
          return false;
        },
        kProbeEveryEvents);
  }

  int probes() const { return probes_; }
  double mean_s() const { return probes_ > 0 ? probe_s_ / probes_ : 0; }
  double wall_s() const { return wall_s_; }

 private:
  int probes_ = 0;
  uint64_t last_events_ = 0;
  double probe_s_ = 0;
  double wall_s_ = 0;
};

// ---------------------------------------------------------- timed calls

struct Attempt {
  std::string kind;  // "run", "engine", "cells" or "cells.traced"
  double seconds = 0;
  bool ok = true;
  uint64_t digest = 0;
  uint64_t events = 0;
  int probes = 0;           // speed probes timed inside the call
  double probe_s = 0;       // their mean host seconds
  double probe_wall_s = 0;  // the call's host seconds spent in them
};

// Where a traced cell run records its "setup" and "run" spans.
struct SpanSink {
  SpanLog* log;
  int parent;
  int rep;
  const char* run_name;
};

// One cell through Scenario: constructor untimed, Run() timed. At most one
// of `sampler`, `probes` and `plant_status` may be set: each takes the
// simulator's interrupt check.
RunRecord RunCell(const std::string& sweep, const RunSpec& run, Sampler* sampler,
                  ProbeLog* probes, bool plant_status, double* seconds,
                  const SpanSink* spans = nullptr) {
  RunRecord rec;
  rec.index = run.index;
  rec.sweep = sweep;
  rec.points = run.points;
  rec.replication = run.replication;
  rec.seed = run.config.seed;
  int span = spans ? spans->log->Open("setup", spans->parent, spans->rep) : -1;
  dibs::Scenario scenario(run.config);
  if (spans) {
    spans->log->Close(span);
    span = spans->log->Open(spans->run_name, spans->parent, spans->rep);
  }
  if (sampler != nullptr) {
    sampler->Attach(scenario.sim());
  }
  if (probes != nullptr) {
    probes->Attach(scenario.sim());
  }
  if (plant_status) {
    scenario.sim().SetInterruptCheck([] { return true; }, 1);
  }
  const Clock::time_point start = Clock::now();
  try {
    rec.result = scenario.Run();
  } catch (const std::exception& e) {
    rec.status = RunStatus::kFailed;
    rec.error = e.what();
  }
  *seconds = SecondsSince(start);
  if (spans) {
    spans->log->Close(span);
  }
  if (rec.status == RunStatus::kOk && scenario.sim().interrupted()) {
    rec.status = RunStatus::kTimeout;
  }
  return rec;
}

Attempt Summarize(std::string kind, double seconds, const std::vector<RunRecord>& records,
                  bool plant_digest) {
  Attempt a;
  a.kind = std::move(kind);
  a.seconds = seconds;
  a.digest = Digest(records, plant_digest);
  for (const RunRecord& rec : records) {
    a.ok = a.ok && rec.status == RunStatus::kOk;
    a.events += rec.result.events_processed;
  }
  return a;
}

// The workload through the sweep engine, records streamed to a JSONL sink.
std::vector<RunRecord> RunEngine(const Workload& w, const dibs::SweepOptions& options,
                                 const std::string& sink_path, double* seconds) {
  std::vector<RunSpec> runs = w.spec.Expand();
  dibs::SweepEngine engine(options);
  std::ofstream sink_file(sink_path, std::ios::trunc);
  dibs::JsonlSink sink(sink_file);
  const Clock::time_point start = Clock::now();
  std::vector<RunRecord> records = engine.RunAll(w.spec.name, std::move(runs), &sink);
  *seconds = SecondsSince(start);
  return records;
}

// Whether to start another attempt: until `min_done` are done, then while the
// next one (estimated by the last) would end closer to `budget` than not.
bool KeepGoing(Clock::time_point start, double budget, int done, int min_done, double last) {
  if (done < min_done) {
    return true;
  }
  return done < kMaxAttempts && SecondsSince(start) + last / 2 <= budget;
}

// --------------------------------------------------------------- JSON out

class JsonObject {
 public:
  explicit JsonObject(std::ostream& os) : os_(os) { os_ << "{"; }
  ~JsonObject() { os_ << "}"; }
  JsonObject(const JsonObject&) = delete;
  JsonObject& operator=(const JsonObject&) = delete;

  std::ostream& Key(const std::string& k) {
    os_ << (first_ ? "" : ",\n") << "\"" << k << "\":";
    first_ = false;
    return os_;
  }
  void Str(const std::string& k, const std::string& v) {
    std::string e;
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        e += '\\';
      }
      e += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    Key(k) << "\"" << e << "\"";
  }
  void Number(const std::string& k, double v) { Key(k) << Num(v); }

 private:
  std::ostream& os_;
  bool first_ = true;
};

void WriteAttempts(JsonObject& out, const std::vector<Attempt>& attempts) {
  std::ostream& os = out.Key("attempts");
  os << "[";
  for (size_t i = 0; i < attempts.size(); ++i) {
    os << (i ? ",\n " : "");
    JsonObject a(os);
    a.Str("kind", attempts[i].kind);
    a.Number("seconds", attempts[i].seconds);
    a.Key("ok") << (attempts[i].ok ? "true" : "false");
    a.Str("digest", Hex(attempts[i].digest));
    a.Number("events", static_cast<double>(attempts[i].events));
    a.Number("probes", attempts[i].probes);
    a.Number("probe_s", attempts[i].probe_s);
    a.Number("probe_wall_s", attempts[i].probe_wall_s);
  }
  os << "]";
}

void WriteNumbers(JsonObject& out, const std::string& key, const std::vector<double>& values) {
  std::ostream& os = out.Key(key);
  os << "[";
  for (size_t i = 0; i < values.size(); ++i) {
    os << (i ? "," : "") << Num(values[i]);
  }
  os << "]";
}

struct Layer {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void WriteResult(const Options& opts, const Workload& w, const std::vector<Attempt>& attempts,
                 const std::vector<double>& setup_s, const std::vector<double>& setup_probe_s,
                 const std::vector<Layer>& layers) {
  std::ofstream file(opts.out, std::ios::trunc);
  {
    JsonObject out(file);
    out.Str("workload", w.spec.name);
    out.Number("seed", static_cast<double>(opts.seed));
    out.Number("trace", opts.trace ? 1 : 0);
    out.Number("runs_per_attempt", static_cast<double>(w.spec.RunCount()));
    out.Number("nproc", std::thread::hardware_concurrency());
    out.Str("compiler", std::string("g++ ") + __VERSION__);
    out.Str("build_type", PERFBENCH_BUILD_TYPE);
    out.Number("peak_rss_mb", PeakRssMb());
    out.Number("probe_nominal_s", kProbeNominalS);
    WriteNumbers(out, "setup_s", setup_s);
    WriteNumbers(out, "setup_probe_s", setup_probe_s);
    WriteAttempts(out, attempts);
    std::ostream& os = out.Key("layers");
    os << "[";
    for (size_t i = 0; i < layers.size(); ++i) {
      os << (i ? ",\n " : "");
      JsonObject l(os);
      l.Str("name", layers[i].name);
      l.Number("value", layers[i].value);
      l.Str("unit", layers[i].unit);
    }
    os << "]";
  }
  file << "\n";
  if (!file) {
    throw std::runtime_error("cannot write " + opts.out);
  }
}

// ------------------------------------------------------------ untraced run

void RunUntraced(const Options& opts, const Workload& w) {
  const Clock::time_point start = Clock::now();
  std::vector<double> setup_s;
  std::vector<double> setup_probe_s;  // the probe timed just before each
  std::vector<Attempt> attempts;
  const RunSpec run = w.spec.Expand().at(0);

  CpuRotation cpus;
  double last = 0;
  while (KeepGoing(start, opts.seconds, static_cast<int>(attempts.size()), kMinAttempts, last)) {
    const Clock::time_point iteration = Clock::now();
    // Setup samples are spread over the whole run, between timed calls, and
    // time the Scenario constructor, teardown excluded.
    for (int i = 0; i < kSetupsPerAttempt; ++i) {
      cpus.Next();
      setup_probe_s.push_back(SpeedProbeSeconds());
      const Clock::time_point setup = Clock::now();
      {
        const dibs::Scenario scenario(run.config);
        setup_s.push_back(SecondsSince(setup));
      }
    }
    const bool plant = attempts.empty();
    const bool plant_status = plant && opts.plant == "status";
    cpus.Next();
    ProbeLog probes;
    double seconds = 0;
    const std::vector<RunRecord> records = {
        RunCell(w.spec.name, run, nullptr, plant_status ? nullptr : &probes, plant_status,
                &seconds)};
    Attempt a = Summarize("run", seconds, records, plant && opts.plant == "digest");
    a.probes = probes.probes();
    a.probe_s = probes.mean_s();
    a.probe_wall_s = probes.wall_s();
    attempts.push_back(a);
    last = SecondsSince(iteration);
  }
  WriteResult(opts, w, attempts, setup_s, setup_probe_s, {});
}

// ------------------------------------------------------------- traced run

struct Totals {
  uint64_t events = 0;
  uint64_t delivered = 0;
  uint64_t drops = 0;
  std::vector<uint64_t> drops_by_reason = std::vector<uint64_t>(dibs::kNumDropReasons, 0);
  uint64_t detours = 0;
  double detoured_packets = 0;
  uint64_t retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t flows_completed = 0;
  uint64_t guard_trips = 0;
  double guard_suppressed_ms = 0;
  int64_t sim_ns = 0;

  void Add(const RunRecord& rec) {
    const dibs::ScenarioResult& r = rec.result;
    events += r.events_processed;
    delivered += r.delivered_packets;
    drops += r.drops;
    for (size_t i = 0; i < r.drops_by_reason.size() && i < drops_by_reason.size(); ++i) {
      drops_by_reason[i] += r.drops_by_reason[i];
    }
    detours += r.detours;
    detoured_packets += r.detoured_fraction * static_cast<double>(r.delivered_packets);
    retransmits += r.retransmits;
    timeouts += r.timeouts;
    flows_completed += r.flows_completed;
    guard_trips += r.guard_trips;
    guard_suppressed_ms += r.guard_time_suppressed_ms;
  }
};

void RunTraced(const Options& opts, const Workload& w) {
  const Clock::time_point start = Clock::now();
  SpanLog spans;
  const int root = spans.Open("trace", -1, 0);
  std::vector<Attempt> attempts;
  const std::vector<RunSpec> runs = w.spec.Expand();

  // 1. The workload once through the sweep engine: harness overhead.
  int span = spans.Open("sweep", root, 0);
  double engine_s = 0;
  const std::vector<RunRecord> engine_records =
      RunEngine(w, EngineOptions(opts), opts.tmp + "/sweep.jsonl", &engine_s);
  spans.Close(span);
  attempts.push_back(Summarize("engine", engine_s, engine_records, false));
  double engine_cell_ms = 0;
  for (const RunRecord& rec : engine_records) {
    engine_cell_ms += rec.wall_ms;
  }

  // 2. Rounds of every cell untraced, then sampled.
  Sampler sampler;
  std::vector<std::vector<double>> plain_s(runs.size());
  std::vector<std::vector<double>> traced_s(runs.size());
  std::vector<RunRecord> traced_records;
  double last = 0;
  for (int round = 0; KeepGoing(start, opts.seconds, round, 1, last); ++round) {
    const Clock::time_point round_start = Clock::now();
    for (const bool traced : {false, true}) {
      std::vector<RunRecord> records;
      double total = 0;
      for (size_t i = 0; i < runs.size(); ++i) {
        const SpanSink sink{&spans, root, round, traced ? "run.traced" : "run"};
        double s = 0;
        records.push_back(
            RunCell(w.spec.name, runs[i], traced ? &sampler : nullptr, nullptr, false, &s, &sink));
        (traced ? traced_s : plain_s)[i].push_back(s);
        total += s;
      }
      attempts.push_back(Summarize(traced ? "cells.traced" : "cells", total, records, false));
      if (traced) {
        traced_records = std::move(records);
      }
    }
    last = SecondsSince(round_start);
  }

  Totals t;
  double plain_total = 0;
  double traced_total = 0;
  size_t replay_run = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    t.Add(traced_records[i]);
    t.sim_ns += (runs[i].config.duration + runs[i].config.drain).nanos();
    plain_total += Median(plain_s[i]);
    traced_total += Median(traced_s[i]);
    if (traced_records[i].result.detours > traced_records[replay_run].result.detours) {
      replay_run = i;
    }
  }
  double pending_sum = 0;
  uint64_t pending_max = 0;
  for (const Sampler::Sample& s : sampler.samples()) {
    pending_sum += static_cast<double>(s.pending);
    pending_max = std::max(pending_max, s.pending);
  }
  const double pending_mean =
      sampler.samples().empty() ? 0 : pending_sum / static_cast<double>(sampler.samples().size());

  // 3. Layer replays at the load the sampled run measured, on the cell's
  // own configuration.
  const ExperimentConfig& cfg = runs[replay_run].config;
  const dibs::Topology topology = dibs::Scenario(cfg).network().topology();
  const uint64_t events = std::max<uint64_t>(1, t.events);
  const uint64_t hop_packets = std::max<uint64_t>(1, t.delivered / 8);
  const int burst = cfg.transport == dibs::TransportKind::kPfabric
                        ? static_cast<int>(cfg.pfabric.window_segments)
                        : static_cast<int>(cfg.tcp.init_cwnd_segments);
  auto replay = [&](const std::string& name, auto&& body) {
    const int id = spans.Open("replay." + name, root, 0);
    auto result = body();
    spans.Close(id);
    return result;
  };
  const double core_ns = replay("sim_core", [&] {
    return SimCoreNs(static_cast<size_t>(std::max(1.0, pending_mean + 0.5)), events / 10,
                     std::max<int64_t>(1, t.sim_ns / static_cast<int64_t>(events)), opts.seed);
  });
  const double droptail_ns = replay("droptail", [&] {
    return DropTailNs(std::max<size_t>(2, cfg.net.switch_buffer_packets),
                      cfg.net.ecn_threshold_packets, t.delivered);
  });
  const double pfabric_ns = replay("pfabric", [&] {
    return PfabricNs(std::max<size_t>(2, cfg.net.pfabric_buffer_packets), t.delivered, opts.seed);
  });
  const HopStats fast = replay("hop", [&] { return FastHop(topology, cfg.net, hop_packets); });
  const HopStats detour = replay("detour_hop", [&] {
    return DetourHop(topology, cfg.net, cfg.incast_degree, burst, hop_packets);
  });
  const int records = static_cast<int>(engine_records.size());
  const double journal_ms = replay("journal", [&] {
    return JournalAppendMs(opts.tmp + "/journal-replay.jsonl", engine_records,
                           std::max(1, 32 / records));
  });
  const double codec_us =
      replay("codec", [&] { return CodecUs(engine_records, std::max(1, 2000 / records)); });
  spans.Close(root);

  const double delivered = static_cast<double>(std::max<uint64_t>(1, t.delivered));
  std::vector<Layer> layers = {
      {"sim.events", static_cast<double>(t.events), "count"},
      {"sim.ns_per_event", plain_total * 1e9 / static_cast<double>(events), "ns"},
      {"sim.pending_mean", pending_mean, "count"},
      {"sim.pending_max", static_cast<double>(pending_max), "count"},
      {"sim.core_ns", core_ns, "ns"},
      {"net.droptail_ns", droptail_ns, "ns"},
      {"net.pfabric_ns", pfabric_ns, "ns"},
      {"device.delivered_pkts", static_cast<double>(t.delivered), "count"},
      {"device.drops", static_cast<double>(t.drops), "count"},
  };
  for (size_t i = 0; i < dibs::kNumDropReasons; ++i) {
    layers.push_back({std::string("device.drops.") +
                          dibs::DropReasonName(static_cast<dibs::DropReason>(i)),
                      static_cast<double>(t.drops_by_reason[i]), "count"});
  }
  const std::vector<Layer> rest = {
      {"device.hop_ns", fast.ns_per_hop, "ns"},
      {"core.detours", static_cast<double>(t.detours), "count"},
      {"core.detour_frac", t.detoured_packets / delivered, "frac"},
      {"core.detour_hop_ns", detour.ns_per_hop, "ns"},
      {"transport.retransmits", static_cast<double>(t.retransmits), "count"},
      {"transport.timeouts", static_cast<double>(t.timeouts), "count"},
      {"transport.flows_completed", static_cast<double>(t.flows_completed), "count"},
      {"guard.trips", static_cast<double>(t.guard_trips), "count"},
      {"guard.suppressed_ms", t.guard_suppressed_ms, "sim-ms"},
      {"exp.overhead_ms_per_run",
       (engine_s * 1e3 - engine_cell_ms) / static_cast<double>(runs.size()), "ms"},
      {"exp.journal_append_ms", journal_ms, "ms"},
      {"exp.codec_us", codec_us, "us"},
      {"bench.trace_overhead_frac", traced_total / plain_total - 1, "frac"},
      // Replay details: how much of each hop replay left the fast path.
      {"replay.hop_packets", static_cast<double>(fast.packets), "count"},
      {"replay.hop_detours", static_cast<double>(fast.detours), "count"},
      {"replay.detour_hop_detours", static_cast<double>(detour.detours), "count"},
      {"replay.detour_hop_drops", static_cast<double>(detour.drops), "count"},
  };
  layers.insert(layers.end(), rest.begin(), rest.end());

  if (!opts.spans.empty()) {
    std::ofstream f(opts.spans, std::ios::trunc);
    JsonObject out(f);
    out.Str("workload", w.spec.name);
    out.Number("seed", static_cast<double>(opts.seed));
    spans.Write(out.Key("spans"));
    std::ostream& os = out.Key("samples");
    os << "[";
    for (size_t i = 0; i < sampler.samples().size(); ++i) {
      const Sampler::Sample& s = sampler.samples()[i];
      os << (i ? "," : "") << "[" << Num(s.wall_s) << "," << s.sim_ns << "," << s.pending << ","
         << s.events << "]";
    }
    os << "]";
  }
  WriteResult(opts, w, attempts, {}, {}, layers);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options opts = perfbench::ParseOptions(argc, argv);
    const perfbench::Workload w = perfbench::MakeWorkload(opts.workload, opts.seed);
    if (opts.trace) {
      perfbench::RunTraced(opts, w);
    } else {
      perfbench::RunUntraced(opts, w);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dibs_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
