// Figure 2a instrumentation: per-switch detour counts in fixed time buckets.
// A TraceSink on kDetour alone. Only the Fig 2a bench subscribes it, so
// Scenario runs never pay for its nested map.

#ifndef SRC_STATS_DETOUR_TIMELINE_H_
#define SRC_STATS_DETOUR_TIMELINE_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/trace/trace_sink.h"

namespace dibs {

class DetourTimeline : public TraceSink {
 public:
  static constexpr TraceKindSet kKinds = TraceKinds({TraceEventType::kDetour});

  // `bucket`: resolution of the per-switch detour time series.
  explicit DetourTimeline(Time bucket = Time::Micros(100)) : bucket_(bucket) {}

  void OnEvent(const TraceEvent& e) override {
    if (e.type == TraceEventType::kDetour) {
      ++timeline_[e.node][e.at.nanos() / bucket_.nanos()];
    }
  }

  // (bucket start time, detour count) series for one switch.
  std::vector<std::pair<Time, uint64_t>> TimelineFor(int node) const {
    std::vector<std::pair<Time, uint64_t>> out;
    auto it = timeline_.find(node);
    if (it == timeline_.end()) {
      return out;
    }
    for (const auto& [bucket, count] : it->second) {
      out.emplace_back(Time::Nanos(bucket * bucket_.nanos()), count);
    }
    return out;
  }

  // Switches that detoured at least once, ordered by node id.
  std::vector<int> DetouringSwitches() const {
    std::vector<int> out;
    out.reserve(timeline_.size());
    for (const auto& [node, series] : timeline_) {
      out.push_back(node);
    }
    return out;
  }

 private:
  Time bucket_;
  std::map<int, std::map<int64_t, uint64_t>> timeline_;  // node -> bucket -> count
};

}  // namespace dibs

#endif  // SRC_STATS_DETOUR_TIMELINE_H_
