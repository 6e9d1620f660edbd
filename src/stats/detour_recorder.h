// DIBS-specific instrumentation: per-switch detour time series (Figure 2a),
// per-packet detour-count distribution (§5.4.4), drop accounting by reason,
// and per-hop queueing-delay telemetry (exact moments + histogram
// percentiles, fed by the OnDequeue observer hook). Implemented as a
// NetworkObserver.

#ifndef SRC_STATS_DETOUR_RECORDER_H_
#define SRC_STATS_DETOUR_RECORDER_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "src/device/observer.h"
#include "src/util/histogram.h"
#include "src/util/stats_util.h"

namespace dibs {

class DetourRecorder : public NetworkObserver {
 public:
  // `timeline_bucket`: resolution of the per-switch detour time series.
  explicit DetourRecorder(Time timeline_bucket = Time::Micros(100))
      : timeline_bucket_(timeline_bucket), delivered_detours_(1.0, 128) {}

  void OnDetour(int node, uint16_t port, const Packet& p, Time at) override {
    ++total_detours_;
    if (p.traffic_class == TrafficClass::kQuery) {
      ++query_detours_;
    }
    const auto bucket = static_cast<int64_t>(at.nanos() / timeline_bucket_.nanos());
    ++timeline_[node][bucket];
  }

  void OnDrop(int node, const Packet& p, DropReason reason, Time at) override {
    ++drops_by_reason_[static_cast<size_t>(reason)];
    ++total_drops_;
  }

  // Per-hop queueing delay, measured exactly from the admission stamp the
  // Port writes onto the packet — no shadow queue-state tracking.
  void OnDequeue(int node, uint16_t port, const Packet& p, size_t queue_depth,
                 Time at) override {
    const double us = (at - p.enqueued_at).ToMicros();
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

  void OnHostDeliver(HostId host, const Packet& p, Time at) override {
    ++delivered_packets_;
    if (p.detour_count > 0) {
      ++delivered_with_detours_;
    }
    delivered_detours_.Add(p.detour_count);
    if (p.ce) {
      ++delivered_marked_;
    }
  }

  uint64_t total_detours() const { return total_detours_; }
  uint64_t query_detours() const { return query_detours_; }
  uint64_t total_drops() const { return total_drops_; }
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
  uint64_t delivered_packets() const { return delivered_packets_; }
  uint64_t delivered_with_detours() const { return delivered_with_detours_; }
  uint64_t delivered_marked() const { return delivered_marked_; }

  // Fraction of delivered packets that were detoured at least once.
  double DetouredFraction() const {
    return delivered_packets_ == 0
               ? 0.0
               : static_cast<double>(delivered_with_detours_) /
                     static_cast<double>(delivered_packets_);
  }

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
  Time timeline_bucket_;
  uint64_t total_detours_ = 0;
  uint64_t query_detours_ = 0;
  uint64_t total_drops_ = 0;
  std::array<uint64_t, kNumDropReasons> drops_by_reason_{};
  uint64_t delivered_packets_ = 0;
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
