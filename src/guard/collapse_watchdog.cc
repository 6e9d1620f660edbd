#include "src/guard/collapse_watchdog.h"

#include <utility>

#include "src/util/env.h"
#include "src/util/logging.h"

namespace dibs {

CollapseWatchdog::CollapseWatchdog(Simulator* sim, std::function<uint64_t()> delivered)
    : sim_(sim), delivered_(std::move(delivered)) {}

bool CollapseWatchdog::ReadStrictCollapseEnv() {
  return env::Flag("DIBS_STRICT_COLLAPSE", false);
}

void CollapseWatchdog::Start(Time stop_time, bool strict) {
  if (started_) {
    return;
  }
  started_ = true;
  stop_time_ = stop_time;
  strict_ = strict;
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
      if (strict_) {
        throw CollapseError(
            "sustained congestion collapse detected at t=" +
            std::to_string(collapse_onset_ms_) + "ms (goodput < " +
            std::to_string(floor) + " pkts/window for " +
            std::to_string(below_streak_) + " consecutive windows)");
      }
    }
  }

  if (now < stop_time_) {
    sim_->Schedule(kCollapseWindow, [this] { Sample(); });
  }
}

}  // namespace dibs
