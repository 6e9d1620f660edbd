#include "src/exp/sweep_engine.h"

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "src/exp/process_runner.h"
#include "src/exp/progress.h"
#include "src/exp/run_journal.h"
#include "src/util/env.h"
#include "src/util/logging.h"

namespace dibs {
namespace {

using Clock = std::chrono::steady_clock;

bool ProgressEnabled(bool default_on) {
  return env::Flag("DIBS_PROGRESS", default_on);
}

// Copies `options` with every env-defaulted knob resolved to its effective
// value, so the execution paths below never consult the environment.
SweepOptions ResolveOptions(SweepOptions options) {
  options.retry = options.retry.Resolved();
  options.isolate = SweepEngine::ResolveIsolation(options.isolate);
  if (options.watchdog_grace_sec < 0) {
    options.watchdog_grace_sec = env::Double("DIBS_WATCHDOG_GRACE_SEC", 5, 0, 86400);
  }
  if (options.journal_path.empty()) {
    if (const char* env = std::getenv("DIBS_JOURNAL"); env != nullptr) {
      options.journal_path = env;
    }
  }
  if (options.resume < 0) {
    options.resume = env::Flag("DIBS_RESUME", false) ? 1 : 0;
  }
  return options;
}

void LogFinalStatus(const std::string& sweep_name, const RunRecord& rec) {
  if (rec.status != RunStatus::kOk) {
    DIBS_LOG(kWarning) << "sweep " << sweep_name << " run " << rec.index << " "
                       << RunStatusName(rec.status) << ": " << rec.error;
  }
}

// Shared completion state: records flushed to the sink strictly in index
// order behind a contiguous-done frontier, the journal appended per final
// record, tallies kept for progress/strict mode. Thread-mode workers call
// Deliver under a lock; the process-mode orchestrator is single-threaded.
struct Delivery {
  std::vector<RunRecord>* records = nullptr;
  std::vector<char>* done = nullptr;
  ResultSink* sink = nullptr;
  RunJournal* journal = nullptr;
  ProgressReporter* progress = nullptr;
  SweepSummary* summary = nullptr;
  size_t flushed = 0;

  void FlushFrontier() {
    while (flushed < records->size() && (*done)[flushed]) {
      if (sink != nullptr) {
        sink->OnRecord((*records)[flushed]);
      }
      ++flushed;
    }
  }

  void Deliver(size_t index, RunRecord rec) {
    summary->Count(rec);
    (*records)[index] = std::move(rec);
    (*done)[index] = 1;
    if (journal != nullptr && journal->is_open()) {
      journal->Append((*records)[index]);
    }
    FlushFrontier();
    progress->Update(*summary);
  }
};

// Thread mode: worker pool, cooperative guards, in-thread retry loop with
// backoff sleeps. A crash or hard hang in any run still takes down the
// whole sweep here — that is what DIBS_ISOLATE=process is for.
void RunThreaded(const std::string& sweep_name, const std::vector<RunSpec>& runs,
                 const SweepOptions& options, Delivery* delivery, std::mutex* mu) {
  const size_t n = runs.size();
  std::atomic<size_t> next_claim{0};

  auto worker = [&] {
    while (true) {
      const size_t i = next_claim.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      {
        std::lock_guard<std::mutex> lock(*mu);
        if ((*delivery->done)[i]) {
          continue;  // replayed from the journal before workers started
        }
      }
      RunRecord rec;
      for (int attempt = 1;; ++attempt) {
        rec = ExecuteRunInline(runs[i], sweep_name, options);
        rec.attempts = attempt;
        if (!options.retry.ShouldRetry(rec.status, attempt)) {
          break;
        }
        const double backoff_ms = options.retry.BackoffMs(attempt + 1);
        DIBS_LOG(kWarning) << "sweep " << sweep_name << " run " << runs[i].index
                           << " " << RunStatusName(rec.status) << " (attempt "
                           << attempt << "/" << options.retry.max_attempts
                           << "): " << rec.error << "; retrying in " << backoff_ms
                           << "ms";
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(backoff_ms));
      }
      FinalizeAttempts(options.retry, &rec);
      LogFinalStatus(sweep_name, rec);

      std::lock_guard<std::mutex> lock(*mu);
      delivery->Deliver(i, std::move(rec));
    }
  };

  const int jobs = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(SweepEngine::ResolveJobs(options.jobs)), n));
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(jobs));
    for (int t = 0; t < jobs; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
}

// Process mode: a single-threaded orchestrator (so fork() never races a
// lock-holding sibling thread) dispatches each run to a forked child and
// multiplexes their result pipes with poll(). Crashes and watchdog kills
// become records; retries re-enter the pending queue after their backoff.
void RunIsolated(const std::string& sweep_name, const std::vector<RunSpec>& runs,
                 const SweepOptions& options, Delivery* delivery) {
  struct PendingRun {
    size_t index;
    int attempt;  // attempt number this execution will be
    Clock::time_point eligible_at;
  };
  struct ActiveRun {
    std::unique_ptr<ForkedRun> child;
    size_t index;
    int attempt;
  };

  std::deque<PendingRun> pending;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!(*delivery->done)[i]) {
      pending.push_back({i, 1, Clock::now()});
    }
  }
  std::vector<ActiveRun> active;
  const size_t jobs = std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(SweepEngine::ResolveJobs(options.jobs)),
                          runs.size()));

  auto finalize = [&](ActiveRun& done_run) {
    RunRecord rec = done_run.child->Finish(runs[done_run.index], sweep_name);
    rec.attempts = done_run.attempt;
    if (options.retry.ShouldRetry(rec.status, done_run.attempt)) {
      const double backoff_ms = options.retry.BackoffMs(done_run.attempt + 1);
      DIBS_LOG(kWarning) << "sweep " << sweep_name << " run " << runs[done_run.index].index
                         << " " << RunStatusName(rec.status) << " (attempt "
                         << done_run.attempt << "/" << options.retry.max_attempts
                         << "): " << rec.error << "; retrying in " << backoff_ms << "ms";
      pending.push_back({done_run.index, done_run.attempt + 1,
                         Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double, std::milli>(
                                                backoff_ms))});
      return;
    }
    FinalizeAttempts(options.retry, &rec);
    LogFinalStatus(sweep_name, rec);
    delivery->Deliver(done_run.index, std::move(rec));
  };

  while (!pending.empty() || !active.empty()) {
    const Clock::time_point now = Clock::now();

    // Launch every eligible pending run into a free slot.
    for (auto it = pending.begin(); it != pending.end() && active.size() < jobs;) {
      if (it->eligible_at > now) {
        ++it;
        continue;
      }
      std::unique_ptr<ForkedRun> child =
          ForkedRun::Start(runs[it->index], sweep_name, options);
      if (child == nullptr) {
        // fork/pipe exhaustion: surface as a failed attempt (still retried).
        RunRecord rec;
        const RunSpec& run = runs[it->index];
        rec.index = run.index;
        rec.sweep = sweep_name;
        rec.points = run.points;
        rec.replication = run.replication;
        rec.seed = run.config.seed;
        rec.status = RunStatus::kFailed;
        rec.error = "fork/pipe failed; cannot isolate run";
        rec.attempts = it->attempt;
        const PendingRun failed_run = *it;
        it = pending.erase(it);
        if (options.retry.ShouldRetry(rec.status, failed_run.attempt)) {
          pending.push_back({failed_run.index, failed_run.attempt + 1,
                             Clock::now() + std::chrono::seconds(1)});
        } else {
          FinalizeAttempts(options.retry, &rec);
          LogFinalStatus(sweep_name, rec);
          delivery->Deliver(failed_run.index, std::move(rec));
        }
        continue;
      }
      active.push_back({std::move(child), it->index, it->attempt});
      it = pending.erase(it);
    }

    if (active.empty()) {
      if (pending.empty()) {
        return;
      }
      // Everything left is backing off; sleep until the earliest retry.
      Clock::time_point earliest = pending.front().eligible_at;
      for (const PendingRun& p : pending) {
        earliest = std::min(earliest, p.eligible_at);
      }
      std::this_thread::sleep_until(earliest);
      continue;
    }

    // Poll result pipes until the next actionable instant: a watchdog
    // deadline, or a backed-off retry becoming eligible while a slot is
    // free. -1 blocks until a child reports or dies.
    int timeout_ms = -1;
    auto consider = [&](Clock::time_point t) {
      const auto delta = std::chrono::duration_cast<std::chrono::milliseconds>(t - now);
      const int ms = std::max<int>(0, static_cast<int>(delta.count()));
      timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
    };
    for (const ActiveRun& a : active) {
      if (a.child->has_deadline()) {
        consider(a.child->kill_deadline());
      }
    }
    if (active.size() < jobs) {
      for (const PendingRun& p : pending) {
        consider(p.eligible_at);
      }
    }

    std::vector<pollfd> fds;
    fds.reserve(active.size());
    for (const ActiveRun& a : active) {
      fds.push_back({a.child->fd(), POLLIN, 0});
    }
    ::poll(fds.data(), fds.size(), timeout_ms);

    const Clock::time_point after = Clock::now();
    for (size_t i = 0; i < active.size();) {
      ActiveRun& a = active[i];
      if (a.child->has_deadline() && after >= a.child->kill_deadline()) {
        a.child->Kill();  // EOF follows; the next pass reaps it
      }
      if (a.child->ReadAvailable()) {
        finalize(a);
        active.erase(active.begin() + static_cast<long>(i));
        continue;
      }
      ++i;
    }
  }
}

}  // namespace

SweepEngine::SweepEngine(SweepOptions options) : options_(std::move(options)) {}

int SweepEngine::ResolveJobs(int requested) {
  if (requested > 0) {
    return requested;
  }
  // "DIBS_JOBS=fuor" used to atoi() to 0 and silently fall back to the
  // hardware count; now it throws a typed EnvError up front. 0 = auto.
  const int jobs = static_cast<int>(env::Int("DIBS_JOBS", 0, 0, 4096));
  if (jobs > 0) {
    return jobs;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

IsolationMode SweepEngine::ResolveIsolation(IsolationMode mode) {
  if (mode != IsolationMode::kDefault) {
    return mode;
  }
  return env::OneOf("DIBS_ISOLATE", "thread", {"thread", "process"}) == "process"
             ? IsolationMode::kProcess
             : IsolationMode::kThread;
}

std::vector<RunRecord> SweepEngine::Run(const SweepSpec& spec, ResultSink* sink) {
  return RunAll(spec.name, spec.Expand(), sink);
}

std::vector<RunRecord> SweepEngine::RunAll(const std::string& sweep_name,
                                           std::vector<RunSpec> runs,
                                           ResultSink* sink) {
  const size_t n = runs.size();
  for (size_t i = 0; i < n; ++i) {
    runs[i].index = static_cast<int>(i);
    // Lets the env-gated test hooks (DIBS_TEST_CRASH_RUN / DIBS_TEST_HANG_RUN)
    // target one run of the matrix deterministically.
    runs[i].config.sweep_run_index = static_cast<int>(i);
  }

  const SweepOptions options = ResolveOptions(options_);
  summary_ = SweepSummary{};
  summary_.total = n;

  std::vector<RunRecord> records(n);
  if (n == 0) {
    if (sink != nullptr) {
      sink->Finish();
    }
    return records;
  }

  // Journal: open (verifying the fingerprint when resuming) and replay
  // completed `ok` rows so only the remainder executes.
  RunJournal journal;
  std::vector<char> done(n, 0);
  if (!options.journal_path.empty()) {
    const uint64_t fingerprint = SweepFingerprint(sweep_name, runs);
    std::map<int, RunRecord> resumed;
    journal.Open(options.journal_path, sweep_name.empty() ? "sweep" : sweep_name, n,
                 fingerprint, options.resume > 0, &resumed);
    for (auto& [index, rec] : resumed) {
      if (index < 0 || static_cast<size_t>(index) >= n || rec.status != RunStatus::kOk) {
        continue;  // failed/timeout/crashed/quarantined rows get a fresh start
      }
      summary_.Count(rec);
      ++summary_.resumed;
      records[static_cast<size_t>(index)] = std::move(rec);
      done[static_cast<size_t>(index)] = 1;
    }
    if (summary_.resumed > 0) {
      DIBS_LOG(kInfo) << "sweep " << sweep_name << ": resumed " << summary_.resumed
                      << "/" << n << " ok rows from journal '" << options.journal_path
                      << "'";
    }
  }

  ProgressReporter progress(sweep_name.empty() ? "sweep" : sweep_name, n,
                            ProgressEnabled(options.progress && n > 1));

  Delivery delivery;
  delivery.records = &records;
  delivery.done = &done;
  delivery.sink = sink;
  delivery.journal = &journal;
  delivery.progress = &progress;
  delivery.summary = &summary_;
  // Rows replayed from the journal stream to the sink up front (in order),
  // exactly as if they had just executed.
  delivery.FlushFrontier();

  if (summary_.done() < n) {
    if (options.isolate == IsolationMode::kProcess) {
      RunIsolated(sweep_name, runs, options, &delivery);
    } else {
      std::mutex mu;
      RunThreaded(sweep_name, runs, options, &delivery, &mu);
    }
  }

  progress.Finish(summary_);
  if (sink != nullptr) {
    sink->Finish();
  }
  return records;
}

}  // namespace dibs
