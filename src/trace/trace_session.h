// TraceSession: owns one run's trace plumbing — the bus, the flight
// recorder (crash-dump armed for its lifetime), the optional streaming
// JSONL sink, the journey builder, and the optional event buffer backing a
// Perfetto export. Scenario creates one per traced run and subscribes its
// bus to every event kind on the Network.

#ifndef SRC_TRACE_TRACE_SESSION_H_
#define SRC_TRACE_TRACE_SESSION_H_

#include <cstddef>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/flight_recorder.h"
#include "src/trace/journey.h"
#include "src/trace/trace_bus.h"
#include "src/trace/trace_codec.h"
#include "src/trace/trace_config.h"

namespace dibs {

class TraceSession {
 public:
  // Events the flight recorder keeps: the last ones before a dump.
  static constexpr size_t kFlightEvents = 4096;

  // run_index >= 0 (a sweep run) suffixes file sinks with ".run<N>" so
  // parallel runs write disjoint files. Opens the JSONL and Perfetto
  // outputs; throws std::runtime_error naming the path when one cannot be
  // opened.
  explicit TraceSession(const TraceConfig& config, int run_index = -1);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  TraceBus* bus() { return &bus_; }
  const FlightRecorder& flight() const { return flight_; }
  const JourneyBuilder& journeys() const { return journeys_; }
  const std::string& dump_path() const { return dump_path_; }

  // Flushes streaming sinks and writes the Perfetto export (if configured).
  // Idempotent; called automatically from the destructor.
  void Finish(const std::map<int32_t, std::string>& node_names = {});

  // Writes the flight-recorder ring to dump_path(). Safe mid-run (used on
  // ValidationError before the exception propagates).
  bool DumpFlight() const { return flight_.DumpToFile(dump_path_); }

 private:
  // Buffers every event when a Perfetto export is requested.
  class CollectSink : public TraceSink {
   public:
    void OnEvent(const TraceEvent& e) override { events.push_back(e); }
    std::vector<TraceEvent> events;
  };

  std::string dump_path_;
  std::ofstream perfetto_;  // open from construction until Finish
  FlightRecorder flight_;
  JourneyBuilder journeys_;
  std::unique_ptr<JsonlTraceSink> jsonl_;
  std::unique_ptr<CollectSink> collect_;
  TraceBus bus_;
  bool finished_ = false;
};

}  // namespace dibs

#endif  // SRC_TRACE_TRACE_SESSION_H_
