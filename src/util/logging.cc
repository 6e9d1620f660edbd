#include "src/util/logging.h"

#include <mutex>

namespace dibs {
namespace {

// Guards emission so lines from concurrent sweep workers never interleave.
std::mutex& EmitMutex() {
  static std::mutex mutex;
  return mutex;
}

thread_local std::string tl_log_tag;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

// Strips the directory part so log lines stay short.
const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  return base;
}

void Emit(const std::string& line) {
  std::lock_guard<std::mutex> lock(EmitMutex());
  std::cerr << line;
}

}  // namespace

void SetThreadLogTag(const std::string& tag) { tl_log_tag = tag; }

const std::string& ThreadLogTag() { return tl_log_tag; }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line << "] ";
  if (!tl_log_tag.empty()) {
    stream_ << "[" << tl_log_tag << "] ";
  }
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  Emit(stream_.str());
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

FatalMessage::FatalMessage(const char* file, int line, const char* condition) {
  stream_ << "[CHECK " << Basename(file) << ":" << line << "] ";
  if (!tl_log_tag.empty()) {
    stream_ << "[" << tl_log_tag << "] ";
  }
  stream_ << "failed: " << condition << " ";
}

FatalMessage::~FatalMessage() {
  stream_ << "\n";
  Emit(stream_.str());
  std::abort();
}

}  // namespace internal
}  // namespace dibs
