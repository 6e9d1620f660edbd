// Collects flow and query completion records and produces the paper's
// metrics: 99th-percentile QCT for query traffic and 99th-percentile FCT for
// short (1–10KB) background flows (§5.3 "Metric").

#ifndef SRC_STATS_FLOW_RECORDER_H_
#define SRC_STATS_FLOW_RECORDER_H_

#include <cstdint>
#include <vector>

#include "src/transport/flow.h"
#include "src/util/stats_util.h"
#include "src/workload/query.h"

namespace dibs {

class FlowRecorder {
 public:
  void RecordFlow(const FlowResult& r) {
    switch (r.spec.traffic_class) {
      case TrafficClass::kBackground:
        background_.push_back(r);
        break;
      case TrafficClass::kQuery:
        query_flows_.push_back(r);
        break;
      case TrafficClass::kLongLived:
        long_lived_.push_back(r);
        break;
    }
    total_retransmits_ += r.retransmits;
    total_timeouts_ += r.timeouts;
  }

  void RecordQuery(const QueryResult& r) { queries_.push_back(r); }

  // FCTs (ms) of background flows with size in [min_bytes, max_bytes].
  std::vector<double> BackgroundFctMs(uint64_t min_bytes = 0,
                                      uint64_t max_bytes = UINT64_MAX) const {
    std::vector<double> out;
    for (const FlowResult& r : background_) {
      if (r.spec.size_bytes >= min_bytes && r.spec.size_bytes <= max_bytes) {
        out.push_back(r.fct.ToMillis());
      }
    }
    return out;
  }

  // The paper's background metric: 99th-percentile FCT (ms) of 1–10KB flows.
  double ShortBackgroundFct99Ms() const {
    return Percentile(BackgroundFctMs(1000, 10000), 99);
  }

  std::vector<double> QctMs() const {
    std::vector<double> out;
    out.reserve(queries_.size());
    for (const QueryResult& r : queries_) {
      out.push_back(r.qct.ToMillis());
    }
    return out;
  }

  double Qct99Ms() const { return Percentile(QctMs(), 99); }

  Summary QctSummary() const { return Summarize(QctMs()); }
  Summary ShortBackgroundFctSummary() const { return Summarize(BackgroundFctMs(1000, 10000)); }

  const std::vector<FlowResult>& background_flows() const { return background_; }
  const std::vector<FlowResult>& query_flows() const { return query_flows_; }
  const std::vector<QueryResult>& queries() const { return queries_; }

  uint64_t total_retransmits() const { return total_retransmits_; }
  uint64_t total_timeouts() const { return total_timeouts_; }

 private:
  std::vector<FlowResult> background_;
  std::vector<FlowResult> query_flows_;
  std::vector<FlowResult> long_lived_;
  std::vector<QueryResult> queries_;
  uint64_t total_retransmits_ = 0;
  uint64_t total_timeouts_ = 0;
};

}  // namespace dibs

#endif  // SRC_STATS_FLOW_RECORDER_H_
