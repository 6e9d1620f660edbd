#include "src/trace/trace_config.h"

#include "src/util/env.h"

namespace dibs {

TraceConfig ApplyTraceEnv(const TraceConfig& base) {
  TraceConfig cfg = base;
  cfg.enabled = env::Flag("DIBS_TRACE", cfg.enabled);
  if (const char* v = env::Raw("DIBS_TRACE_JSONL")) {
    cfg.jsonl_path = v;
    cfg.enabled = true;
  }
  if (const char* v = env::Raw("DIBS_TRACE_PERFETTO")) {
    cfg.perfetto_path = v;
    cfg.enabled = true;
  }
  // Checked parse: a mistyped rate aborts the run with EnvError instead of
  // silently sampling 0% of packets.
  cfg.sample = env::Double("DIBS_TRACE_SAMPLE", cfg.sample, 0.0, 1.0);
  if (const char* v = env::Raw("DIBS_TRACE_DUMP_PATH")) {
    cfg.dump_path = v;
  }
  return cfg;
}

std::string PerRunTracePath(const std::string& base, int run_index) {
  if (base.empty() || run_index < 0) {
    return base;
  }
  const std::string tag = ".run" + std::to_string(run_index);
  const size_t dot = base.find_last_of('.');
  const size_t slash = base.find_last_of('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return base + tag;
  }
  return base.substr(0, dot) + tag + base.substr(dot);
}

}  // namespace dibs
