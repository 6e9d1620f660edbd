// Simulator-core micro-benchmarks: event-queue cost at realistic depth,
// FIB/ECMP lookup, queue disciplines, and the end-to-end packet-hop rate
// through a switch.
// These bound how much simulated traffic the figure benches can afford.

#include <benchmark/benchmark.h>

#include "src/device/host_node.h"
#include "src/device/network.h"
#include "src/net/droptail_queue.h"
#include "src/net/pfabric_queue.h"
#include "src/sim/simulator.h"
#include "src/stats/run_stats.h"
#include "src/topo/builders.h"
#include "src/topo/routing.h"
#include "src/trace/flight_recorder.h"
#include "src/trace/trace_bus.h"
#include "src/util/stats_util.h"

namespace dibs {
namespace {

// The delays a hold loop draws for each successor.
enum class DelayMix {
  // Uniform over 1..20,000 ns: delays hardly repeat, so the simulator's
  // delay lanes take few keys and nearly every key sifts through the heap.
  kUniform,
  // The mix measured in real runs: 96% are one of the four per-hop delays
  // (a 1,500-byte frame's 12,000 ns serialization and 13,000 ns with
  // propagation, a 40-byte ACK's 320 and 1,320 ns), the rest uniform as
  // above.
  kHop,
};

// Hold model at a fixed queue depth: every fire schedules its successor at a
// delay drawn from the mix, so the queue keeps the same number of live
// events. On 2% of fires, the measured share of RTO re-arms, it also cancels
// a long timer and re-arms it. The timer's delay (500 us, longer than
// pFabric's 350 us RTO and 50x the uniform mean) keeps it from ever firing,
// so each re-arm is a cancel that takes a key out of the middle of the
// heap, as an RTO re-arm does in real runs. Closures capture one pointer at
// most, so they sit in std::function's inline buffer and allocation is not
// what gets timed. Every fire calls Stop(), so one Run() is one event.
class HoldLoop {
 public:
  HoldLoop(Simulator* sim, DelayMix mix) : sim_(sim), mix_(mix) {}

  void Arm() {
    sim_->Schedule(Time::Nanos(Delay()), [this] { Fire(); });
  }

 private:
  static constexpr uint64_t kMeanDelayNs = 10000;
  static constexpr int64_t kHopDelaysNs[] = {12000, 13000, 320, 1320};

  int64_t Delay() {
    const uint64_t r = Next();
    if (mix_ == DelayMix::kHop && r % 100 < 96) {
      return kHopDelaysNs[(r / 100) % 4];
    }
    return static_cast<int64_t>(r % (2 * kMeanDelayNs)) + 1;
  }

  void Fire() {
    Arm();
    if (Next() % 50 == 0) {
      sim_->Cancel(timer_);
      timer_ = sim_->Schedule(Time::Nanos(50 * kMeanDelayNs), [] {});
    }
    sim_->Stop();
  }

  uint64_t Next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  Simulator* sim_;
  DelayMix mix_;
  uint64_t x_ = 88172645463325252ull;
  EventId timer_ = kInvalidEventId;
};

void RunHoldLoop(benchmark::State& state, DelayMix mix) {
  Simulator sim;
  HoldLoop hold(&sim, mix);
  const int64_t depth = state.range(0);
  for (int64_t i = 0; i < depth; ++i) {
    hold.Arm();
  }
  // Untimed warm-up until the delays in the queue reach their steady mix.
  for (int64_t i = 0; i < 2 * depth; ++i) {
    sim.Run();
  }
  for (auto _ : state) {
    sim.Run();
  }
  benchmark::DoNotOptimize(sim.events_processed());
  state.counters["pending"] = static_cast<double>(sim.pending_events());
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_EventQueueHold(benchmark::State& state) { RunHoldLoop(state, DelayMix::kUniform); }
BENCHMARK(BM_EventQueueHold)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventQueueHopMix(benchmark::State& state) { RunHoldLoop(state, DelayMix::kHop); }
BENCHMARK(BM_EventQueueHopMix)->Arg(1000)->Arg(10000);

void BM_FibCompute(benchmark::State& state) {
  const Topology topo = BuildPaperFatTree();
  for (auto _ : state) {
    const Fib fib = Fib::Compute(topo);
    benchmark::DoNotOptimize(fib.num_nodes());
  }
}
BENCHMARK(BM_FibCompute);

void BM_EcmpLookup(benchmark::State& state) {
  const Topology topo = BuildPaperFatTree();
  const Fib fib = Fib::Compute(topo);
  FlowId flow = 1;
  for (auto _ : state) {
    const uint16_t port = fib.EcmpPort(/*node=*/16, static_cast<HostId>(flow % 128), flow);
    benchmark::DoNotOptimize(port);
    ++flow;
  }
  state.counters["lookups/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EcmpLookup);

void BM_DropTailEnqueueDequeue(benchmark::State& state) {
  DropTailQueue q(/*capacity=*/128, /*mark=*/20);
  for (auto _ : state) {
    Packet p;
    p.size_bytes = 1500;
    p.ect = true;
    q.Enqueue(std::move(p));
    benchmark::DoNotOptimize(q.Dequeue());
  }
}
BENCHMARK(BM_DropTailEnqueueDequeue);

void BM_PfabricEnqueueDequeue(benchmark::State& state) {
  PfabricQueue q(24);
  int64_t prio = 1;
  for (auto _ : state) {
    Packet p;
    p.size_bytes = 1500;
    p.priority = (prio = prio * 2654435761 % 100000) + 1;
    p.flow = static_cast<FlowId>(prio % 40);
    q.Enqueue(std::move(p));
    if (prio % 2 == 0) {
      benchmark::DoNotOptimize(q.Dequeue());
    }
  }
}
BENCHMARK(BM_PfabricEnqueueDequeue);

void BM_SwitchPacketHop(benchmark::State& state) {
  // End-to-end cost of pushing one packet across the fat-tree (5 switch
  // hops), amortized: events per packet-hop including transmission events.
  Simulator sim;
  Network net(&sim, BuildPaperFatTree(), NetworkConfig{});
  uint64_t batch = 0;
  for (auto _ : state) {
    Packet p;
    p.uid = net.NextPacketUid();
    p.src = static_cast<HostId>(batch % 64);
    p.dst = static_cast<HostId>(127 - batch % 64);
    p.size_bytes = 1500;
    p.ttl = 64;
    p.flow = batch;
    net.host(p.src).Send(std::move(p));
    if (++batch % 32 == 0) {
      sim.Run();
    }
  }
  sim.Run();
  state.counters["pkts/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SwitchPacketHop);

void BM_SwitchPacketHopDefaultSinks(benchmark::State& state) {
  // Same hop loop with Scenario's always-on sink subscribed as a run
  // without faults subscribes it: the path every real run takes, where each
  // dequeue builds and dispatches an event to RunStats.
  Simulator sim;
  Network net(&sim, BuildPaperFatTree(), NetworkConfig{});
  RunStats stats;
  net.Subscribe(&stats, stats.kinds());
  uint64_t batch = 0;
  for (auto _ : state) {
    Packet p;
    p.uid = net.NextPacketUid();
    p.src = static_cast<HostId>(batch % 64);
    p.dst = static_cast<HostId>(127 - batch % 64);
    p.size_bytes = 1500;
    p.ttl = 64;
    p.flow = batch;
    net.host(p.src).Send(std::move(p));
    if (++batch % 32 == 0) {
      sim.Run();
    }
  }
  sim.Run();
  benchmark::DoNotOptimize(stats.QueueingDelaySummary().count);
  state.counters["pkts/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SwitchPacketHopDefaultSinks);

void BM_SwitchPacketHopTraceFiltered(benchmark::State& state) {
  // Same hop loop with a trace bus subscribed but sampling everything out
  // (sample=0): the cost of *armed* tracing that emits nothing. This is the
  // price paid per hook call when a run samples few packets out of millions.
  Simulator sim;
  Network net(&sim, BuildPaperFatTree(), NetworkConfig{});
  TraceBus bus;
  bus.SetSample(0.0);
  net.Subscribe(&bus);
  uint64_t batch = 0;
  for (auto _ : state) {
    Packet p;
    p.uid = net.NextPacketUid();
    p.src = static_cast<HostId>(batch % 64);
    p.dst = static_cast<HostId>(127 - batch % 64);
    p.size_bytes = 1500;
    p.ttl = 64;
    p.flow = batch;
    net.host(p.src).Send(std::move(p));
    if (++batch % 32 == 0) {
      sim.Run();
    }
  }
  sim.Run();
  state.counters["pkts/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SwitchPacketHopTraceFiltered);

void BM_SwitchPacketHopTraceRing(benchmark::State& state) {
  // Same hop loop with full tracing into a flight-recorder ring (sample 1):
  // the in-memory cost ceiling, with no file I/O on the hot path.
  Simulator sim;
  Network net(&sim, BuildPaperFatTree(), NetworkConfig{});
  TraceBus bus;
  FlightRecorder ring(/*capacity=*/65536);
  bus.AddSink(&ring);
  net.Subscribe(&bus);
  uint64_t batch = 0;
  for (auto _ : state) {
    Packet p;
    p.uid = net.NextPacketUid();
    p.src = static_cast<HostId>(batch % 64);
    p.dst = static_cast<HostId>(127 - batch % 64);
    p.size_bytes = 1500;
    p.ttl = 64;
    p.flow = batch;
    net.host(p.src).Send(std::move(p));
    if (++batch % 32 == 0) {
      sim.Run();
    }
  }
  sim.Run();
  benchmark::DoNotOptimize(ring.total_events());
  state.counters["pkts/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SwitchPacketHopTraceRing);

void BM_PercentileOf100k(benchmark::State& state) {
  std::vector<double> values;
  values.reserve(100000);
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(static_cast<double>(x % 1000000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Percentile(values, 99));
  }
}
BENCHMARK(BM_PercentileOf100k);

}  // namespace
}  // namespace dibs

BENCHMARK_MAIN();
