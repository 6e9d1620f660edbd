// Append-only, flush-per-record run journal: the crash-resilience spine of
// the sweep engine. Every finished run's RunRecord is appended as one
// record_codec JSONL line, so a sweep killed at any instant — SIGKILL, OOM,
// power button — leaves a complete prefix on disk and a restarted sweep
// (`journal_path` and `resume` set; `DIBS_JOURNAL=path DIBS_RESUME=1` in a
// bench) loses at most the runs that were in flight.
//
// The journal is keyed by a *fingerprint* of the expanded run matrix (sweep
// name, run count, and per run: index, replication, seed, axis coordinates,
// and a digest of the resolved ExperimentConfig). Resume refuses a journal
// whose fingerprint does not match the sweep being run — resuming someone
// else's rows would silently splice wrong results into the output.
//
// File layout (JSONL):
//   {"journal":"dibs-sweep","version":1,"sweep":...,"runs":N,
//    "fingerprint":"<16 hex digits>"}          <- header, line 1
//   <EncodeRunRecord line>                     <- one per finished run,
//   ...                                           completion order
// A resumed sweep appends to the same file; readers take the LAST record
// per run index. A trailing partial line (torn final write) is ignored.

#ifndef SRC_EXP_RUN_JOURNAL_H_
#define SRC_EXP_RUN_JOURNAL_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/exp/run_record.h"
#include "src/util/atomic_file.h"

namespace dibs {

// Stable digest of the config fields that shape a run's results: every
// field of ExperimentConfig except `trace` and `sweep_run_index`
// (DigestConfigTest flips each one). Its job is to catch resuming with a
// different buffer size, seed, duration, fault plan, ...; the axis labels in
// the fingerprint are the first line of defense.
uint64_t DigestConfig(const ExperimentConfig& config);

// Fingerprint of an expanded run matrix; see file comment.
uint64_t SweepFingerprint(const std::string& sweep_name,
                          const std::vector<RunSpec>& runs);

class RunJournal {
 public:
  RunJournal() = default;
  ~RunJournal() { Close(); }

  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  // Opens `path` for this sweep. With `resume` and an existing non-empty
  // file: verifies the header fingerprint (mismatch throws
  // std::runtime_error) and fills `resumed` with the last record per run
  // index, then appends. Without `resume` (or when the file is missing or
  // empty) the file is truncated and a fresh header is written.
  void Open(const std::string& path, const std::string& sweep_name,
            size_t run_count, uint64_t fingerprint, bool resume,
            std::map<int, RunRecord>* resumed);

  bool is_open() const { return out_.is_open(); }

  // Appends one finished record and flushes. Thread-safe.
  void Append(const RunRecord& record);

  void Close();

 private:
  std::mutex mu_;
  // fsync-per-record append (src/util/atomic_file.h): a record the engine
  // considers journaled must survive the very crash the journal exists for.
  DurableAppendFile out_;
};

}  // namespace dibs

#endif  // SRC_EXP_RUN_JOURNAL_H_
