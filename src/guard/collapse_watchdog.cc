#include "src/guard/collapse_watchdog.h"

#include <utility>

#include "src/util/logging.h"

namespace dibs {

CollapseWatchdog::CollapseWatchdog(Simulator* sim, std::function<uint64_t()> delivered)
    : sim_(sim), delivered_(std::move(delivered)) {}

void CollapseWatchdog::Start(Time stop_time) {
  if (started_) {
    return;
  }
  started_ = true;
  stop_time_ = stop_time;
  last_delivered_ = delivered_();
  sim_->Schedule(kCollapseWindow, [this] { Sample(); });
}

void CollapseWatchdog::Sample() {
  const Time now = sim_->Now();
  const uint64_t total = delivered_();
  const uint64_t window_packets = total - last_delivered_;
  last_delivered_ = total;
  ++windows_sampled_;

  if (window_packets > peak_window_packets_) {
    peak_window_packets_ = window_packets;
  }

  // Only judge once a healthy peak exists: a run that never got traffic
  // flowing is starvation or misconfiguration, not collapse.
  if (peak_window_packets_ >= kCollapseMinPeak) {
    const double floor = kCollapseFraction *
                         static_cast<double>(peak_window_packets_);
    if (static_cast<double>(window_packets) < floor) {
      ++below_streak_;
    } else {
      below_streak_ = 0;
    }
    if (!collapsed_ && below_streak_ >= kCollapseConsecutive) {
      collapsed_ = true;
      collapse_onset_ms_ = now.ToMillis();
      DIBS_LOG(kWarning) << "collapse watchdog: goodput held below "
                         << kCollapseFraction << "x peak ("
                         << peak_window_packets_ << " pkts/window) for "
                         << below_streak_ << " windows at t="
                         << collapse_onset_ms_ << "ms";
    }
  }

  if (now < stop_time_) {
    sim_->Schedule(kCollapseWindow, [this] { Sample(); });
  }
}

}  // namespace dibs
