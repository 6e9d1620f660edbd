#include "src/exp/process_runner.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <memory>

#include "src/exp/record_codec.h"
#include "src/exp/run_journal.h"
#include "src/harness/scenario.h"
#include "src/util/logging.h"

namespace dibs {
namespace {

using Clock = std::chrono::steady_clock;

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    case SIGBUS:
      return "SIGBUS";
    case SIGFPE:
      return "SIGFPE";
    case SIGILL:
      return "SIGILL";
    case SIGKILL:
      return "SIGKILL";
    case SIGTERM:
      return "SIGTERM";
    default:
      return "unknown";
  }
}

void WriteAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // parent gone; nothing useful left to do
    }
    off += static_cast<size_t>(w);
  }
}

}  // namespace

RunRecord ExecuteRunInline(const RunSpec& run, const std::string& sweep_name,
                           const SweepOptions& options) {
  RunRecord rec = RecordFor(run, sweep_name);

  SetThreadLogTag(sweep_name + "#" + std::to_string(run.index));
  const Clock::time_point start = Clock::now();
  try {
    if (run.runner) {
      rec.result = run.runner(run.config);
    } else {
      Scenario scenario(run.config);
      if (options.event_budget != 0) {
        scenario.sim().SetEventBudget(options.event_budget);
      }
      if (options.run_timeout_sec > 0) {
        const Clock::time_point deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(options.run_timeout_sec));
        scenario.sim().SetInterruptCheck([deadline] { return Clock::now() >= deadline; });
      }
      rec.result = scenario.Run();
      if (scenario.sim().interrupted()) {
        rec.status = RunStatus::kTimeout;
        rec.error = "interrupted after " +
                    std::to_string(rec.result.events_processed) + " events at t=" +
                    std::to_string(scenario.sim().Now().ToMillis()) + "ms";
      }
    }
  } catch (const std::exception& e) {
    rec.status = RunStatus::kFailed;
    rec.error = e.what();
  } catch (...) {
    rec.status = RunStatus::kFailed;
    rec.error = "unknown exception";
  }
  SetThreadLogTag("");

  const double wall_sec = std::chrono::duration<double>(Clock::now() - start).count();
  rec.wall_ms = wall_sec * 1e3;
  rec.events_per_sec =
      wall_sec > 0 ? static_cast<double>(rec.result.events_processed) / wall_sec : 0;
  return rec;
}

std::unique_ptr<ForkedRun> ForkedRun::Start(const RunSpec& run,
                                            const std::string& sweep_name,
                                            const SweepOptions& options) {
  int fds[2];
  if (::pipe(fds) != 0) {
    DIBS_LOG(kError) << "pipe() failed: " << std::strerror(errno);
    return nullptr;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    DIBS_LOG(kError) << "fork() failed: " << std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return nullptr;
  }
  if (pid == 0) {
    // Child: run, report, _exit. _exit (not exit) so inherited stdio buffers
    // are not flushed a second time and no static destructors run. cerr is
    // tied to cout by the standard, so without the untie any child log line
    // would flush the parent's buffered (unwritten-at-fork) stdout into the
    // output a second time.
    std::cerr.tie(nullptr);
    ::close(fds[0]);
    const RunRecord rec = ExecuteRunInline(run, sweep_name, options);
    const std::string line = EncodeRunRecord(rec) + "\n";
    WriteAll(fds[1], line.data(), line.size());
    ::close(fds[1]);
    ::_exit(0);
  }

  // Parent.
  ::close(fds[1]);
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  std::unique_ptr<ForkedRun> child(new ForkedRun());
  child->pid_ = pid;
  child->fd_ = fds[0];
  child->start_ = Clock::now();
  if (options.run_timeout_sec > 0) {
    const double kill_after_sec = options.run_timeout_sec + options.watchdog_grace_sec;
    child->has_deadline_ = true;
    child->kill_deadline_ =
        child->start_ + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(kill_after_sec));
  }
  return child;
}

ForkedRun::~ForkedRun() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  if (pid_ > 0 && !reaped_) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

bool ForkedRun::ReadAvailable() {
  while (!eof_) {
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buf_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      eof_ = true;
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    break;  // EAGAIN: no data right now
  }
  return eof_;
}

void ForkedRun::Kill() {
  if (pid_ > 0 && !reaped_ && !watchdog_killed_) {
    watchdog_killed_ = true;
    wall_sec_at_kill_ = std::chrono::duration<double>(Clock::now() - start_).count();
    ::kill(pid_, SIGKILL);
  }
}

RunRecord ForkedRun::Finish(const RunSpec& run, const std::string& sweep_name) {
  int status = 0;
  if (!reaped_) {
    ::waitpid(pid_, &status, 0);
    reaped_ = true;
  }
  // The child is gone, so non-blocking reads drain straight to EOF.
  ReadAvailable();
  ::close(fd_);
  fd_ = -1;

  // A complete first line is the child's own report; trust it even if the
  // watchdog fired afterwards (the run had already finished).
  const size_t newline = buf_.find('\n');
  if (newline != std::string::npos) {
    RunRecord rec;
    std::string error;
    if (DecodeRunRecord(buf_.substr(0, newline), &rec, &error)) {
      return rec;
    }
    DIBS_LOG(kWarning) << "sweep " << sweep_name << " run " << run.index
                       << ": undecodable child record (" << error
                       << "); reporting as crashed";
  }

  RunRecord rec = RecordFor(run, sweep_name);
  rec.wall_ms =
      (watchdog_killed_
           ? wall_sec_at_kill_
           : std::chrono::duration<double>(Clock::now() - start_).count()) *
      1e3;
  if (watchdog_killed_) {
    rec.status = RunStatus::kTimeout;
    rec.error = "hard watchdog SIGKILL after " + std::to_string(wall_sec_at_kill_) +
                "s (run_timeout_sec + grace exceeded outside the event loop)";
  } else if (WIFSIGNALED(status)) {
    rec.status = RunStatus::kCrashed;
    rec.error = "child killed by signal " + std::to_string(WTERMSIG(status)) + " (" +
                SignalName(WTERMSIG(status)) + ")";
  } else {
    rec.status = RunStatus::kCrashed;
    rec.error = "child exited with code " +
                std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1) +
                " without a result record";
  }
  return rec;
}

}  // namespace dibs
