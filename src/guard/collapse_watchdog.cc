#include "src/guard/collapse_watchdog.h"

#include <utility>

#include "src/util/env.h"
#include "src/util/logging.h"

namespace dibs {

CollapseWatchdog::CollapseWatchdog(Simulator* sim, const GuardConfig& config,
                                   std::function<uint64_t()> delivered)
    : sim_(sim), config_(config), delivered_(std::move(delivered)) {}

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
  sim_->Schedule(config_.collapse_window, [this] { Sample(); });
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
  if (peak_window_packets_ >= config_.collapse_min_peak) {
    const double floor = config_.collapse_fraction *
                         static_cast<double>(peak_window_packets_);
    if (static_cast<double>(window_packets) < floor) {
      ++below_streak_;
    } else {
      below_streak_ = 0;
    }
    if (!collapsed_ && below_streak_ >= config_.collapse_consecutive) {
      collapsed_ = true;
      collapse_onset_ms_ = now.ToMillis();
      DIBS_LOG(kWarning) << "collapse watchdog: goodput held below "
                         << config_.collapse_fraction << "x peak ("
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
    sim_->Schedule(config_.collapse_window, [this] { Sample(); });
  }
}

}  // namespace dibs
