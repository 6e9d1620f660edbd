// DIBS-specific instrumentation: per-switch detour time series (Figure 2a),
// per-packet detour-count distribution (§5.4.4), drop accounting by reason,
// and per-hop queueing-delay telemetry (exact moments + histogram
// percentiles, fed by kDequeue events). A TraceSink subscribed to the kinds
// in kKinds; it is the one per-reason drop table every report reads.

#ifndef SRC_STATS_DETOUR_RECORDER_H_
#define SRC_STATS_DETOUR_RECORDER_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "src/trace/trace_sink.h"
#include "src/util/histogram.h"
#include "src/util/stats_util.h"

namespace dibs {

class DetourRecorder : public TraceSink {
 public:
  static constexpr TraceKindSet kKinds =
      TraceKinds({TraceEventType::kDetour, TraceEventType::kDrop, TraceEventType::kDequeue,
                  TraceEventType::kHostDeliver});

  // `timeline_bucket`: resolution of the per-switch detour time series.
  explicit DetourRecorder(Time timeline_bucket = Time::Micros(100))
      : timeline_bucket_(timeline_bucket), delivered_detours_(1.0, 128) {}

  void OnEvent(const TraceEvent& e) override {
    switch (e.type) {
      case TraceEventType::kDetour:
        OnDetour(e);
        break;
      case TraceEventType::kDrop:
        // pFabric evictions are not a DropReason; the tables skip them.
        if (e.drop_reason != kTraceEvictionReason) {
          ++drops_by_reason_[e.drop_reason];
        }
        break;
      case TraceEventType::kDequeue:
        OnDequeue(e);
        break;
      case TraceEventType::kHostDeliver:
        OnHostDeliver(e);
        break;
      default:
        break;
    }
  }

  // The drop, detour and delivery totals are Network's; this keeps the
  // breakdowns.
  uint64_t query_detours() const { return query_detours_; }
  uint64_t drops(DropReason reason) const {
    return drops_by_reason_[static_cast<size_t>(reason)];
  }
  // Full drop breakdown, indexed by DropReason (size kNumDropReasons).
  const std::array<uint64_t, kNumDropReasons>& drops_by_reason() const {
    return drops_by_reason_;
  }
  // Sum of all fault-attributed drops (link-down, switch-down, lossy, no
  // live route).
  uint64_t fault_drops() const {
    uint64_t total = 0;
    for (size_t i = 0; i < kNumDropReasons; ++i) {
      if (IsFaultDrop(static_cast<DropReason>(i))) {
        total += drops_by_reason_[i];
      }
    }
    return total;
  }
  // Delivered packets that were detoured at least once; the delivered total
  // is Network's.
  uint64_t delivered_with_detours() const { return delivered_with_detours_; }
  uint64_t delivered_marked() const { return delivered_marked_; }

  // Detour count exceeded by at most (1 - fraction) of delivered packets,
  // e.g. 0.99 -> "1% of packets are detoured N times or more" (§5.4.4).
  double DetourCountQuantile(double fraction) const {
    return delivered_detours_.ApproxQuantile(fraction);
  }

  // Per-hop queueing delay over every dequeue seen (host NICs included).
  // count/mean/min/max are exact; percentiles are histogram-approximate
  // (2 µs buckets, ~16 ms range).
  Summary QueueingDelaySummary() const {
    Summary s;
    s.count = queueing_count_;
    if (queueing_count_ == 0) {
      return s;
    }
    s.mean = queueing_sum_us_ / static_cast<double>(queueing_count_);
    s.min = queueing_min_us_;
    s.max = queueing_max_us_;
    s.p50 = queueing_delay_us_.ApproxQuantile(0.50);
    s.p90 = queueing_delay_us_.ApproxQuantile(0.90);
    s.p99 = queueing_delay_us_.ApproxQuantile(0.99);
    s.p999 = queueing_delay_us_.ApproxQuantile(0.999);
    return s;
  }

  // Figure 2a: (bucket start time, detour count) series for one switch.
  std::vector<std::pair<Time, uint64_t>> TimelineFor(int node) const {
    std::vector<std::pair<Time, uint64_t>> out;
    auto it = timeline_.find(node);
    if (it == timeline_.end()) {
      return out;
    }
    for (const auto& [bucket, count] : it->second) {
      out.emplace_back(Time::Nanos(bucket * timeline_bucket_.nanos()), count);
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
  void OnDetour(const TraceEvent& e) {
    if (e.tclass == static_cast<uint8_t>(TrafficClass::kQuery)) {
      ++query_detours_;
    }
    const auto bucket = static_cast<int64_t>(e.at.nanos() / timeline_bucket_.nanos());
    ++timeline_[e.node][bucket];
  }

  // Per-hop queueing delay, measured exactly from the admission stamp the
  // Port writes onto the packet — no shadow queue-state tracking.
  void OnDequeue(const TraceEvent& e) {
    const double us = (e.at - e.enqueued_at).ToMicros();
    queueing_delay_us_.Add(us);
    queueing_sum_us_ += us;
    if (queueing_count_ == 0 || us < queueing_min_us_) {
      queueing_min_us_ = us;
    }
    if (queueing_count_ == 0 || us > queueing_max_us_) {
      queueing_max_us_ = us;
    }
    ++queueing_count_;
  }

  void OnHostDeliver(const TraceEvent& e) {
    if (e.detour_count > 0) {
      ++delivered_with_detours_;
    }
    delivered_detours_.Add(e.detour_count);
    if (e.ce) {
      ++delivered_marked_;
    }
  }

  Time timeline_bucket_;
  uint64_t query_detours_ = 0;
  std::array<uint64_t, kNumDropReasons> drops_by_reason_{};
  uint64_t delivered_with_detours_ = 0;
  uint64_t delivered_marked_ = 0;
  Histogram delivered_detours_;
  Histogram queueing_delay_us_{2.0, 8192};  // 2 µs buckets, ~16 ms + overflow
  uint64_t queueing_count_ = 0;
  double queueing_sum_us_ = 0;
  double queueing_min_us_ = 0;
  double queueing_max_us_ = 0;
  std::map<int, std::map<int64_t, uint64_t>> timeline_;  // node -> bucket -> count
};

}  // namespace dibs

#endif  // SRC_STATS_DETOUR_RECORDER_H_
