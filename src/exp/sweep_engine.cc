#include "src/exp/sweep_engine.h"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "src/exp/process_runner.h"
#include "src/exp/progress.h"
#include "src/exp/run_journal.h"
#include "src/util/logging.h"

namespace dibs {
namespace {

using Clock = std::chrono::steady_clock;

// Shared completion state: records flushed to the sink strictly in index
// order behind a contiguous-done frontier, the journal appended per final
// record, tallies kept for progress and summary(). Settle locks, so
// thread-mode workers call it concurrently; the process-mode orchestrator
// is single-threaded.
struct Delivery {
  std::string sweep_name;
  int max_attempts = 1;
  std::vector<RunRecord> records;
  std::vector<char> done;
  ResultSink* sink = nullptr;
  RunJournal* journal = nullptr;
  ProgressReporter* progress = nullptr;
  SweepSummary* summary = nullptr;
  size_t flushed = 0;
  std::mutex mu;

  void FlushFrontier() {
    while (flushed < records.size() && done[flushed]) {
      if (sink != nullptr) {
        sink->OnRecord(records[flushed]);
      }
      ++flushed;
    }
  }

  // Settles attempt `rec.attempts` of run `index`, the one place either
  // backend decides between running again and delivering. An attempt that
  // did not finish ok is logged; with attempts left, Settle returns true and
  // the caller runs it again at once. Otherwise the record is final: it is
  // counted, journaled and flushed to the sink in matrix order.
  bool Settle(size_t index, RunRecord rec) {
    if (rec.status != RunStatus::kOk) {
      const bool again = rec.attempts < max_attempts;
      DIBS_LOG(kWarning) << "sweep " << sweep_name << " run " << rec.index << " "
                         << RunStatusName(rec.status)
                         << (again ? " (attempt " + std::to_string(rec.attempts) + "/" +
                                         std::to_string(max_attempts) + ")"
                                   : "")
                         << ": " << rec.error << (again ? "; retrying" : "");
      if (again) {
        return true;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    summary->Count(rec);
    records[index] = std::move(rec);
    done[index] = 1;
    if (journal->is_open()) {
      journal->Append(records[index]);
    }
    FlushFrontier();
    progress->Update(*summary);
    return false;
  }
};

// Thread mode: a worker pool claims the pending runs in matrix order and
// runs each until Settle delivers it. A crash or hard hang in any run still
// takes down the whole sweep here — that is what process isolation is for.
void RunThreaded(const std::vector<RunSpec>& runs, const std::vector<size_t>& pending,
                 const SweepOptions& options, Delivery* delivery) {
  std::atomic<size_t> next_claim{0};

  auto worker = [&] {
    while (true) {
      const size_t k = next_claim.fetch_add(1, std::memory_order_relaxed);
      if (k >= pending.size()) {
        return;
      }
      const size_t i = pending[k];
      for (int attempt = 1;; ++attempt) {
        RunRecord rec = ExecuteRunInline(runs[i], delivery->sweep_name, options);
        rec.attempts = attempt;
        if (!delivery->Settle(i, std::move(rec))) {
          break;
        }
      }
    }
  };

  const size_t jobs =
      std::min<size_t>(static_cast<size_t>(SweepEngine::ResolveJobs(options.jobs)), pending.size());
  if (jobs <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (size_t t = 0; t < jobs; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

// Process mode: a single-threaded orchestrator (so fork() never races a
// lock-holding sibling thread) dispatches each run to a forked child and
// multiplexes their result pipes with poll(). Crashes and watchdog kills
// become records; a run that goes again rejoins the queue at once.
void RunIsolated(const std::vector<RunSpec>& runs, const std::vector<size_t>& pending,
                 const SweepOptions& options, Delivery* delivery) {
  struct Attempt {
    size_t index;
    int number;  // 1 = first try
  };
  struct ActiveRun {
    std::unique_ptr<ForkedRun> child;
    Attempt attempt;
  };

  const std::string& sweep_name = delivery->sweep_name;
  std::deque<Attempt> queue;
  for (const size_t i : pending) {
    queue.push_back({i, 1});
  }
  std::vector<ActiveRun> active;
  const size_t jobs =
      std::min<size_t>(static_cast<size_t>(SweepEngine::ResolveJobs(options.jobs)), pending.size());

  auto settle = [&](const Attempt& attempt, RunRecord rec) {
    rec.attempts = attempt.number;
    if (delivery->Settle(attempt.index, std::move(rec))) {
      queue.push_back({attempt.index, attempt.number + 1});
    }
  };

  while (!queue.empty() || !active.empty()) {
    // Fill every free slot.
    while (!queue.empty() && active.size() < jobs) {
      const Attempt next = queue.front();
      queue.pop_front();
      std::unique_ptr<ForkedRun> child = ForkedRun::Start(runs[next.index], sweep_name, options);
      if (child == nullptr) {
        // fork/pipe exhaustion: a failed attempt like any other.
        RunRecord rec = RecordFor(runs[next.index], sweep_name);
        rec.status = RunStatus::kFailed;
        rec.error = "fork/pipe failed; cannot isolate run";
        settle(next, std::move(rec));
        continue;
      }
      active.push_back({std::move(child), next});
    }
    if (active.empty()) {
      continue;  // every attempt so far was settled without a child
    }

    // Poll result pipes until a child reports or dies, or until the earliest
    // watchdog deadline; -1 blocks until a child reports or dies.
    const Clock::time_point now = Clock::now();
    int timeout_ms = -1;
    std::vector<pollfd> fds;
    fds.reserve(active.size());
    for (const ActiveRun& a : active) {
      fds.push_back({a.child->fd(), POLLIN, 0});
      if (a.child->has_deadline()) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(a.child->kill_deadline() - now);
        const int ms = std::max<int>(0, static_cast<int>(left.count()));
        timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
      }
    }
    ::poll(fds.data(), fds.size(), timeout_ms);

    const Clock::time_point after = Clock::now();
    for (size_t i = 0; i < active.size();) {
      ActiveRun& a = active[i];
      if (a.child->has_deadline() && after >= a.child->kill_deadline()) {
        a.child->Kill();  // EOF follows; the next pass reaps it
      }
      if (a.child->ReadAvailable()) {
        settle(a.attempt, a.child->Finish(runs[a.attempt.index], sweep_name));
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
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
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
    // Names each run's trace files, and lets the env-gated crash hook
    // (DIBS_TEST_CRASH_RUN) target one run of the matrix deterministically.
    runs[i].config.sweep_run_index = static_cast<int>(i);
  }

  summary_ = SweepSummary{};
  summary_.total = n;
  if (n == 0) {
    if (sink != nullptr) {
      sink->Finish();
    }
    return {};
  }

  Delivery delivery;
  delivery.sweep_name = sweep_name;
  delivery.max_attempts = options_.retry.max_attempts;
  delivery.records.resize(n);
  delivery.done.assign(n, 0);
  delivery.sink = sink;
  delivery.summary = &summary_;

  // Journal: open (verifying the fingerprint when resuming) and replay
  // completed `ok` rows so only the remainder executes.
  RunJournal journal;
  if (!options_.journal_path.empty()) {
    std::map<int, RunRecord> resumed;
    journal.Open(options_.journal_path, sweep_name.empty() ? "sweep" : sweep_name, n,
                 SweepFingerprint(sweep_name, runs), options_.resume, &resumed);
    for (auto& [index, rec] : resumed) {
      if (index < 0 || static_cast<size_t>(index) >= n || rec.status != RunStatus::kOk) {
        continue;  // failed/timeout/crashed rows get a fresh start
      }
      summary_.Count(rec);
      ++summary_.resumed;
      delivery.records[static_cast<size_t>(index)] = std::move(rec);
      delivery.done[static_cast<size_t>(index)] = 1;
    }
  }
  delivery.journal = &journal;

  ProgressReporter progress(sweep_name.empty() ? "sweep" : sweep_name, n,
                            options_.progress && n > 1);
  delivery.progress = &progress;
  // Rows replayed from the journal stream to the sink up front (in order),
  // exactly as if they had just executed.
  delivery.FlushFrontier();

  std::vector<size_t> pending;
  for (size_t i = 0; i < n; ++i) {
    if (!delivery.done[i]) {
      pending.push_back(i);
    }
  }
  if (!pending.empty()) {
    if (options_.isolate == IsolationMode::kProcess) {
      RunIsolated(runs, pending, options_, &delivery);
    } else {
      RunThreaded(runs, pending, options_, &delivery);
    }
  }

  progress.Finish(summary_);
  if (sink != nullptr) {
    sink->Finish();
  }
  return std::move(delivery.records);
}

}  // namespace dibs
