// Sink interface for the instrumentation stream. A sink subscribes to a set
// of event kinds on the Network (or to everything a TraceBus lets through)
// and receives those events in simulation-time order (the simulator is
// single-threaded per run, so no locking is needed inside a sink).

#ifndef SRC_TRACE_TRACE_SINK_H_
#define SRC_TRACE_TRACE_SINK_H_

#include <cstdint>
#include <initializer_list>

#include "src/trace/trace_event.h"

namespace dibs {

// A set of TraceEventTypes, one bit per kind.
using TraceKindSet = uint32_t;
static_assert(kNumTraceEventTypes < 32, "TraceKindSet has one bit per kind");

constexpr TraceKindSet TraceKinds(std::initializer_list<TraceEventType> kinds) {
  TraceKindSet set = 0;
  for (const TraceEventType t : kinds) {
    set |= TraceKindSet{1} << static_cast<unsigned>(t);
  }
  return set;
}

inline constexpr TraceKindSet kAllTraceKinds = (TraceKindSet{1} << kNumTraceEventTypes) - 1;

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void OnEvent(const TraceEvent& e) = 0;

  // Called once when the run ends; streaming sinks flush here.
  virtual void Finish() {}
};

}  // namespace dibs

#endif  // SRC_TRACE_TRACE_SINK_H_
