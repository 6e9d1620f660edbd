// TraceBus: the sampled trace sink behind DIBS_TRACE.
//
// Subscribed to every kind on the Network, the bus applies head sampling
// once per event and forwards survivors to its own sinks (flight recorder,
// journeys, JSONL, Perfetto buffer). Sampling is a pure hash of the packet
// uid — no RNG state is consumed, so attaching a bus can never perturb the
// simulation, and the same uids are sampled on every run of a given workload.

#ifndef SRC_TRACE_TRACE_BUS_H_
#define SRC_TRACE_TRACE_BUS_H_

#include <cstdint>
#include <vector>

#include "src/trace/trace_event.h"
#include "src/trace/trace_sink.h"

namespace dibs {

// Deterministic per-uid coin flip: a multiplicative hash of the uid compared
// against sample * 2^53. Fibonacci-hashing constant spreads sequential uids.
inline bool SampledUid(uint64_t uid, double sample) {
  if (sample >= 1.0) {
    return true;
  }
  if (sample <= 0.0) {
    return false;
  }
  const uint64_t h = (uid * 0x9E3779B97F4A7C15ull) >> 11;  // top 53 bits
  return static_cast<double>(h) < sample * 9007199254740992.0;  // 2^53
}

class TraceBus : public TraceSink {
 public:
  // Head-sampling fraction of packet uids, [0,1].
  void SetSample(double sample) { sample_ = sample; }

  // Sinks are not owned; callers keep them alive for the bus's lifetime.
  void AddSink(TraceSink* sink) { sinks_.push_back(sink); }

  void OnEvent(const TraceEvent& e) override {
    // Control events (uid 0: pause, link/switch transitions) carry no packet
    // identity, so sampling never drops them.
    if (e.uid != 0 && !SampledUid(e.uid, sample_)) {
      return;
    }
    for (TraceSink* sink : sinks_) {
      sink->OnEvent(e);
    }
  }

  void Finish() override {
    for (TraceSink* sink : sinks_) {
      sink->Finish();
    }
  }

 private:
  double sample_ = 1.0;
  std::vector<TraceSink*> sinks_;
};

}  // namespace dibs

#endif  // SRC_TRACE_TRACE_BUS_H_
