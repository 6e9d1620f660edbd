// The golden cells shared by the behaviour lock (golden_test.cc) and the
// stream lock (stream_test.cc): seven reduced k=4 fat-tree configurations,
// the FNV-1a-64 hash both locks use, and the sink that hashes an encoded
// trace stream exactly as a JSONL sink would write it.

#ifndef TESTS_GOLDEN_GOLDEN_CELLS_H_
#define TESTS_GOLDEN_GOLDEN_CELLS_H_

#include <gtest/gtest.h>

#include <bitset>
#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/harness/config.h"
#include "src/trace/trace_codec.h"
#include "src/trace/trace_sink.h"

namespace dibs::golden {

// Shared shape of every cell: k=4 fat-tree (16 hosts), fixed seed.
inline ExperimentConfig Reduced(ExperimentConfig c, int duration_ms, int drain_ms) {
  c.fat_tree_k = 4;
  c.incast_degree = 12;
  c.bg_interarrival = Time::Millis(2);
  c.duration = Time::Millis(duration_ms);
  c.drain = Time::Millis(drain_ms);
  c.seed = 7;
  return c;
}

inline ExperimentConfig CellConfig(const std::string& name) {
  if (name == "dibs_incast_background") {
    ExperimentConfig c = Reduced(DibsConfig(), 30, 15);
    c.qps = 2000;
    return c;
  }
  if (name == "pfabric_rto") {
    ExperimentConfig c = Reduced(PfabricExperimentConfig(), 30, 15);
    c.qps = 3000;
    return c;
  }
  if (name == "dctcp_pfc") {
    ExperimentConfig c = Reduced(DctcpConfig(), 30, 15);
    c.qps = 2000;
    c.net.pfc_enabled = true;
    return c;
  }
  if (name == "dibs_faults") {
    ExperimentConfig c = Reduced(DibsConfig(), 35, 15);
    c.qps = 2000;
    const Topology topo = BuildTopology(c);
    const int tor = fault::TorOf(topo, /*h=*/0);
    const std::vector<int> uplinks = fault::SwitchFacingLinks(topo, tor);
    // Jitter far above the serialization time, so deliveries on the lossy
    // uplink land out of transmit order.
    c.faults.DegradeLink(uplinks.at(0), Time::Millis(2), /*loss_probability=*/0.05,
                         /*extra_jitter=*/Time::Micros(60))
        .RestoreLink(uplinks.at(0), Time::Millis(30))
        .LinkFlap(uplinks.at(1), Time::Millis(5), Time::Millis(3), Time::Millis(3),
                  /*cycles=*/2)
        .SwitchCrash(fault::TorOf(topo, /*h=*/15), Time::Millis(10))
        .SwitchRestart(fault::TorOf(topo, /*h=*/15), Time::Millis(20));
    return c;
  }
  if (name == "dibs_guard_watchdog") {
    // Shallow buffers and a wide incast, so a breaker trips within the cell.
    ExperimentConfig c = Reduced(DibsGuardConfig(), 30, 10);
    c.qps = 18000;
    c.incast_degree = 15;
    c.net.switch_buffer_packets = 30;
    c.net.guard.watchdog = true;
    return c;
  }
  if (name == "dibs_load_aware") {
    // The incast/background cell under §7's load-aware detouring.
    ExperimentConfig c = CellConfig("dibs_incast_background");
    c.net.detour_policy = "load-aware";
    return c;
  }
  if (name == "dctcp_monitors_shared_buffer") {
    ExperimentConfig c = Reduced(DctcpConfig(), 30, 15);
    c.qps = 2000;
    c.net.use_shared_buffer = true;
    c.monitor_interval = Time::Millis(1);
    return c;
  }
  ADD_FAILURE() << "no golden cell named " << name;
  return ExperimentConfig();
}

inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;

inline uint64_t Fnv1a64(const char* bytes, size_t n, uint64_t h = kFnvOffset) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 1099511628211ull;
  }
  return h;
}

inline uint64_t Fnv1a64(const std::string& bytes) { return Fnv1a64(bytes.data(), bytes.size()); }

// Hashes the encoded stream exactly as a JSONL sink would write it.
class DigestSink : public TraceSink {
 public:
  void OnEvent(const TraceEvent& e) override {
    char buf[kMaxTraceLineBytes];
    const size_t n = EncodeTraceEventLine(e, buf, sizeof buf);
    digest = Fnv1a64(buf, n, digest);
    ++lines;
    kinds.set(static_cast<size_t>(e.type));
    if (e.type == TraceEventType::kDrop && e.drop_reason == kTraceEvictionReason) {
      ++evictions;
    }
  }

  uint64_t digest = kFnvOffset;
  uint64_t lines = 0;
  std::bitset<kNumTraceEventTypes> kinds;
  uint64_t evictions = 0;
};

}  // namespace dibs::golden

#endif  // TESTS_GOLDEN_GOLDEN_CELLS_H_
