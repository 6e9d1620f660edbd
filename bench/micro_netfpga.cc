// §5.1 micro-benchmark: the NetFPGA-modeled forward/detour decision.
// The paper's claim is that DIBS adds no processing delay — the decision
// completes in the same pipeline cycle. Here we measure the software model's
// decision throughput and compare against 1GbE line rate for back-to-back
// 64-byte frames (1.488 Mpps): the decision logic must be orders of
// magnitude faster than one packet slot.

#include <benchmark/benchmark.h>

#include "src/hw/netfpga.h"

namespace dibs {
namespace {

void BM_NetfpgaForwardDecision(benchmark::State& state) {
  netfpga::OutputPortLookup lookup(0b1111'0000, 8);
  uint32_t i = 0;
  for (auto _ : state) {
    // Desired port always available: the reference fast path.
    const auto r = lookup.Decide(1u << (i++ % 4), 0xFF);
    benchmark::DoNotOptimize(r);
  }
  state.counters["decisions/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["x_1GbE_64B_linerate"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 1.488e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetfpgaForwardDecision);

void BM_NetfpgaDetourDecision(benchmark::State& state) {
  netfpga::OutputPortLookup lookup(0b1111'0000, 8);
  uint32_t i = 0;
  for (auto _ : state) {
    // Desired ports full; the DIBS stage picks a random switch port.
    const auto r = lookup.Decide(1u << (i++ % 4), 0b1111'0000);
    benchmark::DoNotOptimize(r);
  }
  state.counters["decisions/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetfpgaDetourDecision);

void BM_NetfpgaDropDecision(benchmark::State& state) {
  netfpga::OutputPortLookup lookup(0b1111'0000, 8);
  for (auto _ : state) {
    const auto r = lookup.Decide(0b0000'0001, 0);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NetfpgaDropDecision);

}  // namespace
}  // namespace dibs

BENCHMARK_MAIN();
