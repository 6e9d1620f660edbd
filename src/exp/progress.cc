#include "src/exp/progress.h"

#include <unistd.h>

#include <cstdio>

namespace dibs {

ProgressReporter::ProgressReporter(std::string name, size_t total, bool enabled)
    : name_(std::move(name)),
      total_(total),
      enabled_(enabled),
      tty_(isatty(fileno(stderr)) != 0),
      start_(std::chrono::steady_clock::now()) {}

std::string ProgressReporter::ComposeLine(const SweepSummary& s,
                                          double elapsed_sec) const {
  char buf[64];
  std::string line = "[sweep " + name_ + "] " + std::to_string(s.done()) + "/" +
                     std::to_string(total_) + " done";
  if (s.done() != s.ok) {
    line += " (ok " + std::to_string(s.ok);
    if (s.failed != 0) {
      line += ", failed " + std::to_string(s.failed);
    }
    if (s.timeout != 0) {
      line += ", timeout " + std::to_string(s.timeout);
    }
    if (s.crashed != 0) {
      line += ", crashed " + std::to_string(s.crashed);
    }
    line += ")";
  }
  if (s.retried != 0) {
    line += " [retried " + std::to_string(s.retried) + "]";
  }
  if (s.resumed != 0) {
    line += " [resumed " + std::to_string(s.resumed) + "]";
  }
  std::snprintf(buf, sizeof(buf), " in %.1fs", elapsed_sec);
  line += buf;
  return line;
}

void ProgressReporter::PrintLine(const SweepSummary& summary, bool last) {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  std::fprintf(stderr, "%s%s%s", tty_ ? "\r" : "",
               ComposeLine(summary, elapsed).c_str(), tty_ && !last ? "" : "\n");
  std::fflush(stderr);
}

void ProgressReporter::Update(const SweepSummary& summary) {
  if (!enabled_ || summary.done() >= total_) {
    return;  // the final line comes from Finish()
  }
  if (tty_) {
    PrintLine(summary, /*last=*/false);
    return;
  }
  if (summary.done() >= next_milestone_) {
    PrintLine(summary, /*last=*/false);
    next_milestone_ = summary.done() + (total_ + 9) / 10;
  }
}

void ProgressReporter::Finish(const SweepSummary& summary) {
  if (!enabled_) {
    return;
  }
  PrintLine(summary, /*last=*/true);
}

}  // namespace dibs
