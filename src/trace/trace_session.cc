#include "src/trace/trace_session.h"

#include <stdexcept>

#include "src/trace/perfetto.h"

namespace dibs {
namespace {

void RequireOpen(bool ok, const std::string& path) {
  if (!ok) {
    throw std::runtime_error("cannot open trace output '" + path + "'");
  }
}

}  // namespace

TraceSession::TraceSession(const TraceConfig& config, int run_index)
    : dump_path_(PerRunTracePath(config.dump_path, run_index)), flight_(kFlightEvents) {
  bus_.SetSample(config.sample);
  bus_.AddSink(&flight_);
  bus_.AddSink(&journeys_);
  // Both outputs open before the crash handler is armed: a throw from here
  // must not leave it holding a pointer to flight_.
  if (!config.jsonl_path.empty()) {
    const std::string path = PerRunTracePath(config.jsonl_path, run_index);
    jsonl_ = std::make_unique<JsonlTraceSink>(path);
    RequireOpen(jsonl_->ok(), path);
    bus_.AddSink(jsonl_.get());
  }
  if (!config.perfetto_path.empty()) {
    const std::string path = PerRunTracePath(config.perfetto_path, run_index);
    perfetto_.open(path);
    RequireOpen(perfetto_.good(), path);
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
    WritePerfettoTrace(perfetto_, collect_->events, node_names);
    perfetto_.close();
  }
}

}  // namespace dibs
