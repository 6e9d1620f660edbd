// Trace configuration and the DIBS_TRACE* environment overlay.
//
// TraceConfig rides on ExperimentConfig but is deliberately excluded from
// the sweep journal's config digest: tracing is observability, and turning
// it on or off must never invalidate resumable run results (same rule as
// sweep_run_index). The env overlay lets any figure bench or sweep be traced
// without a recompile: DIBS_TRACE=1 <bench>.

#ifndef SRC_TRACE_TRACE_CONFIG_H_
#define SRC_TRACE_TRACE_CONFIG_H_

#include <string>

namespace dibs {

struct TraceConfig {
  bool enabled = false;

  // Streaming JSONL sink path; empty = no streaming sink.
  std::string jsonl_path;

  // Chrome trace-event / Perfetto JSON export path; empty = no export.
  std::string perfetto_path;

  // Where the flight recorder's ring goes on a ValidationError or a crash
  // signal. The recorder always runs while tracing is enabled; it only hits
  // disk on such a dump.
  std::string dump_path = "dibs_flight.jsonl";

  // Head-sampling fraction of packet uids, [0,1]; control events always pass.
  double sample = 1.0;
};

// Returns `base` overlaid with the DIBS_TRACE* environment:
//   DIBS_TRACE=0|1          master switch (any env::Flag boolean)
//   DIBS_TRACE_JSONL=path   streaming JSONL sink
//   DIBS_TRACE_PERFETTO=path  Perfetto JSON export
//   DIBS_TRACE_SAMPLE=0.1   head-sampling fraction of packet uids
//   DIBS_TRACE_DUMP_PATH=path  where flight-recorder dumps go
// A malformed value (a non-boolean switch, a sample outside [0,1]) throws
// EnvError naming the variable.
TraceConfig ApplyTraceEnv(const TraceConfig& base);

// File path for one run of a sweep: inserts ".run<N>" before the extension
// ("t.jsonl", 3 -> "t.run3.jsonl") so parallel runs never share a file.
// Returns `base` unchanged when run_index < 0 or base is empty.
std::string PerRunTracePath(const std::string& base, int run_index);

}  // namespace dibs

#endif  // SRC_TRACE_TRACE_CONFIG_H_
