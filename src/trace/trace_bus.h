// TraceBus: the filtered trace sink behind DIBS_TRACE.
//
// Subscribed to every kind on the Network, the bus applies the runtime
// filter (node set, flow set, traffic class, head-sampling rate) once per
// event and forwards survivors to its own sinks (flight recorder, journeys,
// JSONL, Perfetto buffer). Sampling is a pure hash of the packet uid — no RNG state
// is consumed, so attaching a bus can never perturb the simulation, and the
// same uids are sampled on every run of a given workload.

#ifndef SRC_TRACE_TRACE_BUS_H_
#define SRC_TRACE_TRACE_BUS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/trace/trace_event.h"
#include "src/trace/trace_sink.h"

namespace dibs {

struct TraceFilter {
  // Empty = all nodes / all flows. Kept sorted for binary search.
  std::vector<int32_t> nodes;
  std::vector<FlowId> flows;
  int tclass = -1;      // -1 = all traffic classes
  double sample = 1.0;  // head-sampling fraction of packet uids, [0,1]

  void Normalize() {
    std::sort(nodes.begin(), nodes.end());
    std::sort(flows.begin(), flows.end());
    sample = std::max(0.0, std::min(1.0, sample));
  }

  bool pass_all() const {
    return nodes.empty() && flows.empty() && tclass < 0 && sample >= 1.0;
  }
};

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
  void SetFilter(TraceFilter filter) {
    filter_ = std::move(filter);
    filter_.Normalize();
    pass_all_ = filter_.pass_all();
  }
  const TraceFilter& filter() const { return filter_; }

  // Sinks are not owned; callers keep them alive for the bus's lifetime.
  void AddSink(TraceSink* sink) { sinks_.push_back(sink); }

  void OnEvent(const TraceEvent& e) override {
    if (!pass_all_ && !Passes(e)) {
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
  bool Passes(const TraceEvent& e) const {
    if (!filter_.nodes.empty() && e.node >= 0 &&
        !std::binary_search(filter_.nodes.begin(), filter_.nodes.end(), e.node)) {
      return false;
    }
    // Control events (uid 0: pause, link/switch transitions) carry no packet
    // identity; they bypass the flow/class/sampling dimensions.
    if (e.uid == 0) {
      return true;
    }
    if (!filter_.flows.empty() &&
        !std::binary_search(filter_.flows.begin(), filter_.flows.end(), e.flow)) {
      return false;
    }
    if (filter_.tclass >= 0 && e.tclass != static_cast<uint8_t>(filter_.tclass)) {
      return false;
    }
    return SampledUid(e.uid, filter_.sample);
  }

  TraceFilter filter_;
  bool pass_all_ = true;
  std::vector<TraceSink*> sinks_;
};

}  // namespace dibs

#endif  // SRC_TRACE_TRACE_BUS_H_
