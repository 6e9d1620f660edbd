// FlightRecorder: bounded ring buffer over the trace stream.
//
// Always-cheap sink that remembers the last N events. On a ValidationError
// or a crash signal, the ring is written out as ordinary trace JSONL so the
// events leading up to the failure can be inspected with tools/trace_tool.
// DumpToFd is async-signal-safe (fixed stack buffer, raw write(2)) so the
// crash handler can call it directly.

#ifndef SRC_TRACE_FLIGHT_RECORDER_H_
#define SRC_TRACE_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/trace_sink.h"

namespace dibs {

class FlightRecorder : public TraceSink {
 public:
  explicit FlightRecorder(size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1), ring_(capacity_) {}

  void OnEvent(const TraceEvent& e) override {
    ring_[next_ % capacity_] = e;
    ++next_;
  }

  size_t capacity() const { return capacity_; }
  uint64_t total_events() const { return next_; }
  size_t size() const {
    return next_ < capacity_ ? static_cast<size_t>(next_) : capacity_;
  }

  // Events oldest-to-newest (at most `capacity` of them).
  std::vector<TraceEvent> Snapshot() const;

  // Writes the ring as JSONL to an open descriptor. Async-signal-safe.
  void DumpToFd(int fd) const;

  // Opens `path` (truncating) and dumps the ring. Returns false on IO error.
  bool DumpToFile(const std::string& path) const;

 private:
  const size_t capacity_;
  std::vector<TraceEvent> ring_;
  uint64_t next_ = 0;  // total events ever seen; next_ % capacity_ = write slot
};

// Registers `recorder` to be dumped to `path` if the process dies by
// SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL. The handler writes the dump and
// re-raises with the default disposition, so the process still dies by the
// original signal (process_runner sees the same exit status as today). Only
// one recorder can be armed at a time; arming replaces the previous one.
void ArmCrashDump(const FlightRecorder* recorder, const std::string& path);
void DisarmCrashDump(const FlightRecorder* recorder);
bool CrashDumpArmed();

}  // namespace dibs

#endif  // SRC_TRACE_FLIGHT_RECORDER_H_
