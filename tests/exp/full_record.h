// A RunRecord with every field set, shared by the codec and sink tests.

#ifndef TESTS_EXP_FULL_RECORD_H_
#define TESTS_EXP_FULL_RECORD_H_

#include <cstdint>
#include <limits>

#include "src/exp/run_record.h"

namespace dibs {

// Every leaf holds a distinct, non-default value, so a decoder that skips or
// swaps a field changes the re-encoded bytes.
inline RunRecord FullRecord() {
  RunRecord r;
  r.index = 42;
  r.sweep = "fig11";
  r.points = {{"scheme", "dibs"}, {"degree", "100"}};
  r.replication = 3;
  r.seed = std::numeric_limits<uint64_t>::max();
  r.status = RunStatus::kTimeout;
  r.attempts = 2;
  r.error = "watchdog: \"stalled\"\tat 5 ms";
  r.wall_ms = 123.456789012345;
  r.events_per_sec = 2.5e6;
  r.result.qct99_ms = 17.25;
  r.result.bg_fct99_ms = 3.125;
  r.result.bg_fct99_all_ms = 4.0625;
  r.result.qct = {.count = 130, .mean = 9.5, .min = 1.75, .max = 21.0,
                  .p50 = 8.25, .p90 = 14.5, .p99 = 17.125, .p999 = 20.5};
  r.result.bg_fct_short = {.count = 77, .mean = 1.5, .min = 0.375, .max = 6.75,
                           .p50 = 1.25, .p90 = 2.625, .p99 = 3.0625, .p999 = 5.5};
  r.result.queries_completed = 128;
  r.result.queries_launched = 131;
  r.result.flows_completed = 5200;
  r.result.flows_started = 5210;
  r.result.drops = 97;
  r.result.ttl_drops = 12;
  r.result.drops_by_reason = {201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211};
  static_assert(kNumDropReasons == 11,
                "extend the drops_by_reason fixture when adding reasons");
  r.result.fault_drops = 4;
  r.result.fault_events_applied = 6;
  r.result.fault_flows_stalled = 1;
  r.result.fault_flows_recovered = 9;
  r.result.fault_recovery_ms_max = 12.75;
  r.result.detours = 12345;
  r.result.delivered_packets = 197531;
  r.result.detoured_fraction = 0.0625;
  r.result.query_detour_share = 0.875;
  r.result.detour_count_p99 = 40;
  r.result.queueing_delay_us = {.count = 987654, .mean = 35.5, .min = 0.25,
                                .max = 16000.5, .p50 = 22, .p90 = 64,
                                .p99 = 250, .p999 = 1024};
  r.result.loop_packets = 8;
  r.result.retransmits = 17;
  r.result.timeouts = 5;
  r.result.guard_trips = 10;
  r.result.guard_transitions = 31;
  r.result.guard_suppressed_drops = 14;
  r.result.guard_ttl_clamped_drops = 13;
  r.result.guard_time_suppressed_ms = 6.5;
  r.result.collapse_detected = true;
  r.result.collapse_onset_ms = 42.25;
  r.result.hot_fractions = {0.5, 0.25};
  r.result.relative_hot_fractions = {0.75};
  r.result.one_hop_free = {0.125, 0.0009765625};
  r.result.two_hop_free = {0.9375};
  r.result.events_processed = 1000000;
  return r;
}

}  // namespace dibs

#endif  // TESTS_EXP_FULL_RECORD_H_
