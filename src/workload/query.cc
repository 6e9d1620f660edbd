#include "src/workload/query.h"

#include <utility>

#include "src/device/network.h"
#include "src/util/logging.h"

namespace dibs {

QueryWorkload::QueryWorkload(Network* network, FlowManager* flows, Options options,
                             QueryCompletionCallback on_complete)
    : network_(network),
      flows_(flows),
      options_(options),
      on_complete_(std::move(on_complete)),
      rng_(options.seed) {
  DIBS_CHECK_GT(options_.qps, 0.0);
  DIBS_CHECK_GT(options_.degree, 0);
  DIBS_CHECK_GT(network_->num_hosts(), options_.degree)
      << "incast degree must leave room for the target host";
}

void QueryWorkload::Start() { ScheduleNext(); }

void QueryWorkload::ScheduleNext() {
  if (queries_launched_ >= options_.max_queries) {
    return;
  }
  Rng& rng = rng_;
  const Time gap = Time::FromSeconds(rng.Exponential(1.0 / options_.qps));
  const Time when = network_->sim().Now() + gap;
  if (when > options_.stop_time) {
    return;
  }
  network_->sim().ScheduleAt(when, [this] { OnArrival(); });
}

void QueryWorkload::OnArrival() {
  LaunchOne();
  ScheduleNext();
}

void QueryWorkload::LaunchOne() {
  Rng& rng = rng_;
  const int n = network_->num_hosts();

  // Target plus `degree` distinct responders, all chosen uniformly.
  std::vector<int> picks = rng.SampleWithoutReplacement(n, options_.degree + 1);
  const auto target = static_cast<HostId>(picks[0]);

  const uint64_t qid = next_query_id_++;
  PendingQuery& pq = pending_[qid];
  pq.result.query_id = qid;
  pq.result.target = target;
  pq.result.issue_time = network_->sim().Now();
  pq.result.degree = options_.degree;
  pq.responses_outstanding = options_.degree;
  ++queries_launched_;

  for (int i = 1; i <= options_.degree; ++i) {
    const auto responder = static_cast<HostId>(picks[static_cast<size_t>(i)]);
    flows_->StartFlow(responder, target, options_.response_bytes, TrafficClass::kQuery,
                      [this, qid](const FlowResult& r) { OnResponseComplete(qid, r); });
  }
}

void QueryWorkload::OnResponseComplete(uint64_t qid, const FlowResult& r) {
  auto it = pending_.find(qid);
  DIBS_CHECK(it != pending_.end());
  PendingQuery& entry = it->second;
  entry.result.total_retransmits += r.retransmits;
  entry.result.total_timeouts += r.timeouts;
  if (--entry.responses_outstanding == 0) {
    entry.result.completion_time = network_->sim().Now();
    entry.result.qct = entry.result.completion_time - entry.result.issue_time;
    ++queries_completed_;
    QueryResult done = entry.result;
    pending_.erase(it);
    if (on_complete_) {
      on_complete_(done);
    }
  }
  if (options_.on_flow_complete) {
    options_.on_flow_complete(r);
  }
}

}  // namespace dibs
