// Partition/aggregate ("query", incast) traffic generator (§5.3).
//
// Queries arrive as a Poisson process at `qps`. Each query picks a random
// target host and `degree` distinct random responders; every responder sends
// `response_bytes` to the target simultaneously. Query completion time (QCT)
// is measured at the target: from query issue until the last response's final
// byte arrives — the paper's primary metric (99th percentile of QCT).

#ifndef SRC_WORKLOAD_QUERY_H_
#define SRC_WORKLOAD_QUERY_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/sim/simulator.h"
#include "src/transport/flow_manager.h"

namespace dibs {

class Network;

struct QueryResult {
  uint64_t query_id = 0;
  HostId target = kInvalidHost;
  Time issue_time;
  Time completion_time;
  Time qct;  // completion - issue
  int degree = 0;
  uint32_t total_retransmits = 0;
  uint32_t total_timeouts = 0;
};

using QueryCompletionCallback = std::function<void(const QueryResult&)>;

class QueryWorkload {
 public:
  struct Options {
    double qps = 300;               // Table 2 default; §5.7 pushes to 15000
    int degree = 40;                // responders per query
    uint64_t response_bytes = 20000;  // 20KB default
    Time stop_time = Time::Max();
    uint64_t max_queries = UINT64_MAX;
    // Dedicated randomness stream (see BackgroundWorkload::Options::seed).
    uint64_t seed = 0x71727973;  // "qrys"
    // Per-flow completion tap (the QCT path does not need it; stats may).
    FlowCompletionCallback on_flow_complete;
  };

  QueryWorkload(Network* network, FlowManager* flows, Options options,
                QueryCompletionCallback on_complete);

  void Start();

  uint64_t queries_launched() const { return queries_launched_; }
  uint64_t queries_completed() const { return queries_completed_; }

 private:
  struct PendingQuery {
    QueryResult result;
    int responses_outstanding = 0;
  };

  void LaunchOne();
  void ScheduleNext();
  void OnArrival();
  void OnResponseComplete(uint64_t qid, const FlowResult& r);

  Network* network_;
  FlowManager* flows_;
  Options options_;
  QueryCompletionCallback on_complete_;
  Rng rng_;
  uint64_t next_query_id_ = 1;
  uint64_t queries_launched_ = 0;
  uint64_t queries_completed_ = 0;
  std::unordered_map<uint64_t, PendingQuery> pending_;  // lint:allow(unordered-iter): lookup only
};

}  // namespace dibs

#endif  // SRC_WORKLOAD_QUERY_H_
