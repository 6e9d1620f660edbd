// Trace configuration and the DIBS_TRACE* environment overlay.
//
// TraceConfig rides on ExperimentConfig but is deliberately excluded from
// the sweep journal's config digest: tracing is observability, and turning
// it on or off must never invalidate resumable run results (same rule as
// sweep_run_index). The env overlay lets any figure bench or sweep be traced
// without a recompile: DIBS_TRACE=1 <bench>.

#ifndef SRC_TRACE_TRACE_CONFIG_H_
#define SRC_TRACE_TRACE_CONFIG_H_

#include <cstddef>
#include <string>

#include "src/trace/trace_bus.h"

namespace dibs {

struct TraceConfig {
  bool enabled = false;

  // Streaming JSONL sink path; empty = no streaming sink.
  std::string jsonl_path;

  // Chrome trace-event / Perfetto JSON export path; empty = no export.
  std::string perfetto_path;

  // Flight recorder ring capacity (events). The recorder always runs while
  // tracing is enabled; it only hits disk on dump.
  size_t ring_capacity = 4096;

  // Dump the ring at the end of every run (DIBS_TRACE_DUMP=1), in addition
  // to the always-on dump on ValidationError or crash signal.
  bool dump_at_end = false;
  std::string dump_path = "dibs_flight.jsonl";

  TraceFilter filter;
};

// Returns `base` overlaid with the DIBS_TRACE* environment:
//   DIBS_TRACE=0|1          master switch (any env::Flag boolean)
//   DIBS_TRACE_JSONL=path   streaming JSONL sink
//   DIBS_TRACE_PERFETTO=path  Perfetto JSON export
//   DIBS_TRACE_NODES=1,2,9  node filter (comma-separated ids)
//   DIBS_TRACE_FLOWS=4,17   flow filter
//   DIBS_TRACE_CLASS=0|1|2  traffic-class filter
//   DIBS_TRACE_SAMPLE=0.1   head-sampling fraction of packet uids
//   DIBS_TRACE_RING=8192    flight-recorder capacity
//   DIBS_TRACE_DUMP=1       dump the ring at end of run
//   DIBS_TRACE_DUMP_PATH=path  where dumps (end-of-run and crash) go
// A malformed value (a non-boolean switch, a list item that is not a
// non-negative id in range) throws EnvError naming the variable.
TraceConfig ApplyTraceEnv(const TraceConfig& base);

// File path for one run of a sweep: inserts ".run<N>" before the extension
// ("t.jsonl", 3 -> "t.run3.jsonl") so parallel runs never share a file.
// Returns `base` unchanged when run_index < 0 or base is empty.
std::string PerRunTracePath(const std::string& base, int run_index);

}  // namespace dibs

#endif  // SRC_TRACE_TRACE_CONFIG_H_
