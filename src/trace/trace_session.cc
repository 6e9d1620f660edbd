#include "src/trace/trace_session.h"

#include <fstream>

#include "src/trace/perfetto.h"

namespace dibs {

TraceSession::TraceSession(const TraceConfig& config, int run_index)
    : dump_path_(PerRunTracePath(config.dump_path, run_index)),
      perfetto_path_(PerRunTracePath(config.perfetto_path, run_index)),
      flight_(kFlightEvents) {
  bus_.SetSample(config.sample);
  bus_.AddSink(&flight_);
  bus_.AddSink(&journeys_);
  if (!config.jsonl_path.empty()) {
    jsonl_ = std::make_unique<JsonlTraceSink>(PerRunTracePath(config.jsonl_path, run_index));
    bus_.AddSink(jsonl_.get());
  }
  if (!perfetto_path_.empty()) {
    collect_ = std::make_unique<CollectSink>();
    bus_.AddSink(collect_.get());
  }
  ArmCrashDump(&flight_, dump_path_);
}

TraceSession::~TraceSession() {
  Finish();
  DisarmCrashDump(&flight_);
}

void TraceSession::Finish(const std::map<int32_t, std::string>& node_names) {
  if (finished_) {
    return;
  }
  finished_ = true;
  bus_.Finish();
  if (collect_ != nullptr) {
    std::ofstream out(perfetto_path_);
    if (out.good()) {
      WritePerfettoTrace(out, collect_->events, node_names);
    }
  }
}

}  // namespace dibs
