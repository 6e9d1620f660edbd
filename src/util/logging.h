// Minimal logging and assertion support for the DIBS library.
//
// DIBS_LOG(kWarning | kError | kFatal) always prints, to stderr; kFatal then
// aborts. Each simulation is single-threaded (the simulator is a
// deterministic discrete-event engine), but the sweep engine (src/exp) runs
// many simulations on worker threads, so emission is mutex-guarded and
// concurrent log lines never interleave. Sweep workers tag their lines with
// a per-run id via SetThreadLogTag().

#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace dibs {

enum class LogLevel : int {
  kWarning = 0,
  kError = 1,
  kFatal = 2,
};

// Tags every log line emitted from the calling thread with `tag` (e.g. the
// sweep engine sets "fig07#12" while executing run 12). An empty tag clears
// it. Thread-local; threads start untagged.
void SetThreadLogTag(const std::string& tag);
const std::string& ThreadLogTag();

namespace internal {

// Accumulates one log statement and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Used by DIBS_CHECK: logs the failed condition and aborts.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalMessage();

  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

struct Voidify {
  // Lowest-precedence operator that still binds tighter than ?: — lets
  // DIBS_CHECK swallow the stream expression when the check passes.
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace dibs

#define DIBS_LOG(level) \
  ::dibs::internal::LogMessage(::dibs::LogLevel::level, __FILE__, __LINE__).stream()

// Always-on invariant check; aborts with a message when violated.
#define DIBS_CHECK(condition)         \
  (condition)                         \
      ? (void)0                       \
      : ::dibs::internal::Voidify() & \
            ::dibs::internal::FatalMessage(__FILE__, __LINE__, #condition).stream()

#define DIBS_CHECK_OP(op, a, b) DIBS_CHECK((a)op(b)) << " (" << (a) << " vs " << (b) << ") "
#define DIBS_CHECK_EQ(a, b) DIBS_CHECK_OP(==, a, b)
#define DIBS_CHECK_NE(a, b) DIBS_CHECK_OP(!=, a, b)
#define DIBS_CHECK_LT(a, b) DIBS_CHECK_OP(<, a, b)
#define DIBS_CHECK_LE(a, b) DIBS_CHECK_OP(<=, a, b)
#define DIBS_CHECK_GT(a, b) DIBS_CHECK_OP(>, a, b)
#define DIBS_CHECK_GE(a, b) DIBS_CHECK_OP(>=, a, b)

#ifdef NDEBUG
#define DIBS_DCHECK(condition) DIBS_CHECK(true || (condition))
#else
#define DIBS_DCHECK(condition) DIBS_CHECK(condition)
#endif

#endif  // SRC_UTIL_LOGGING_H_
