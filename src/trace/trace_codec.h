// JSONL codec for TraceEvent.
//
// One event per line, every key always present in a fixed order, all values
// integral or drawn from fixed string tables — so encoded traces are
// byte-identical across worker counts and process isolation, and the encoder
// is async-signal-safe (no allocation, no locale, no stdio) for use inside
// the flight recorder's crash handler.

#ifndef SRC_TRACE_TRACE_CODEC_H_
#define SRC_TRACE_TRACE_CODEC_H_

#include <cstddef>
#include <fstream>
#include <string>

#include "src/trace/trace_event.h"
#include "src/trace/trace_sink.h"

namespace dibs {

// Longest possible encoded line (all fields at max width) plus the newline.
inline constexpr size_t kMaxTraceLineBytes = 320;

// Writes the JSON object plus a trailing '\n' into buf (capacity cap) and
// returns the number of bytes written. Async-signal-safe. Truncates (still
// newline-terminated) if cap is too small; kMaxTraceLineBytes never is.
size_t EncodeTraceEventLine(const TraceEvent& e, char* buf, size_t cap);

// Convenience allocating wrapper (line without the trailing newline).
std::string EncodeTraceEvent(const TraceEvent& e);

// Parses one encoded line (with or without trailing newline). Unknown keys
// are skipped; missing keys other than "ev" keep their defaults. Returns
// false on malformed input, a missing or unknown event-type name, a
// non-empty reason that names no drop reason, or an integer outside its
// field's type.
bool DecodeTraceEvent(const std::string& line, TraceEvent* out);

// Streaming JSONL sink: one encoded event per line, flushed on Finish.
class JsonlTraceSink : public TraceSink {
 public:
  explicit JsonlTraceSink(const std::string& path) : out_(path) {}

  bool ok() const { return out_.good(); }

  void OnEvent(const TraceEvent& e) override {
    char buf[kMaxTraceLineBytes];
    out_.write(buf, static_cast<std::streamsize>(EncodeTraceEventLine(e, buf, sizeof buf)));
  }

  void Finish() override { out_.flush(); }

 private:
  std::ofstream out_;
};

}  // namespace dibs

#endif  // SRC_TRACE_TRACE_CODEC_H_
