#include "src/trace/trace_config.h"

#include "src/util/env.h"

namespace dibs {
namespace {

// A comma-separated id list; each item goes through env::ParseInt's
// digit-and-range rule, and a bad one throws EnvError naming the variable.
template <typename Int>
std::vector<Int> ParseIdList(const char* name, const char* value, int64_t max) {
  std::vector<Int> out;
  std::string item;
  for (const char* s = value;; ++s) {
    if (*s != ',' && *s != '\0') {
      item += *s;
      continue;
    }
    int64_t id = 0;
    std::string reason;
    if (!env::ParseInt(item.c_str(), 0, max, &id, &reason)) {
      throw EnvError(name, value, "item '" + item + "': " + reason);
    }
    out.push_back(static_cast<Int>(id));
    if (*s == '\0') {
      return out;
    }
    item.clear();
  }
}

}  // namespace

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
  if (const char* v = env::Raw("DIBS_TRACE_NODES")) {
    cfg.filter.nodes = ParseIdList<int32_t>("DIBS_TRACE_NODES", v, INT32_MAX);
  }
  if (const char* v = env::Raw("DIBS_TRACE_FLOWS")) {
    cfg.filter.flows = ParseIdList<FlowId>("DIBS_TRACE_FLOWS", v, INT64_MAX);
  }
  // Checked parses: a mistyped filter knob aborts the run with EnvError
  // instead of silently tracing class 0 / sampling 0% of packets.
  cfg.filter.tclass =
      static_cast<int>(env::Int("DIBS_TRACE_CLASS", cfg.filter.tclass, -1, 255));
  cfg.filter.sample = env::Double("DIBS_TRACE_SAMPLE", cfg.filter.sample, 0.0, 1.0);
  cfg.ring_capacity = static_cast<size_t>(
      env::Int("DIBS_TRACE_RING", static_cast<int64_t>(cfg.ring_capacity), 1,
               1 << 30));
  cfg.dump_at_end = env::Flag("DIBS_TRACE_DUMP", cfg.dump_at_end);
  if (const char* v = env::Raw("DIBS_TRACE_DUMP_PATH")) {
    cfg.dump_path = v;
  }
  cfg.filter.Normalize();  // env lists arrive in arbitrary order
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
