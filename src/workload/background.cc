#include "src/workload/background.h"

#include <utility>

#include "src/device/network.h"
#include "src/util/logging.h"

namespace dibs {

BackgroundWorkload::BackgroundWorkload(Network* network, FlowManager* flows, Options options,
                                       EmpiricalCdf sizes, FlowCompletionCallback on_complete)
    : network_(network),
      flows_(flows),
      options_(options),
      sizes_(std::move(sizes)),
      on_complete_(std::move(on_complete)),
      rng_(options.seed) {
  DIBS_CHECK_GE(network_->num_hosts(), 2);
}

void BackgroundWorkload::Start() { ScheduleNext(); }

void BackgroundWorkload::ScheduleNext() {
  if (flows_launched_ >= options_.max_flows) {
    return;
  }
  Rng& rng = rng_;
  double mean_s = options_.mean_interarrival.ToSeconds();
  if (options_.per_host) {
    mean_s /= static_cast<double>(network_->num_hosts());
  }
  const Time gap = Time::FromSeconds(rng.Exponential(mean_s));
  const Time when = network_->sim().Now() + gap;
  if (when > options_.stop_time) {
    return;
  }
  network_->sim().ScheduleAt(when, [this] { OnArrival(); });
}

void BackgroundWorkload::OnArrival() {
  LaunchOne();
  ScheduleNext();
}

void BackgroundWorkload::LaunchOne() {
  Rng& rng = rng_;
  const int n = network_->num_hosts();
  const auto src = static_cast<HostId>(rng.UniformInt(0, n - 1));
  auto dst = static_cast<HostId>(rng.UniformInt(0, n - 2));
  if (dst >= src) {
    ++dst;
  }
  const auto bytes = static_cast<uint64_t>(sizes_.Sample(rng));
  flows_->StartFlow(src, dst, bytes, TrafficClass::kBackground, on_complete_);
  ++flows_launched_;
}

}  // namespace dibs
