// Durable file I/O for harness artifacts: the run journal and chaos corpus
// entries.
//
// Two primitives cover both:
//
//  - WriteFileDurable: whole-file replace (corpus entries) via
//    write-to-temp + fsync + rename + directory fsync. A reader never
//    observes a torn file: it sees either the previous complete content or
//    the new complete content, even across a crash or power loss between
//    the write and the rename.
//  - DurableAppendFile: fd-based append that fsyncs after every record, for
//    append-only logs (the run journal) where rename-replace does not apply.
//    A crash can still tear the *last* line mid-write — append-only readers
//    must (and do) tolerate a torn trailing line — but every previously
//    appended record is on stable storage.
//
// Both report failure instead of throwing: persistence failures are
// diagnosed by the caller (skip the artifact, warn, fall back), never fatal
// to the simulation producing it.

#ifndef SRC_UTIL_ATOMIC_FILE_H_
#define SRC_UTIL_ATOMIC_FILE_H_

#include <string>

namespace dibs {

// Atomically replaces `path` with `contents`. The temp file lives in the
// same directory (rename must not cross filesystems) and is fsync'd before
// the rename; the directory is fsync'd after so the new name itself is
// durable. Returns false and fills `error` (when non-null) with an
// errno-tagged reason on any failure; a failed write never leaves a partial
// file at `path` (at worst an orphaned temp file, which later writes reuse
// the naming scheme of and readers never look at).
bool WriteFileDurable(const std::string& path, const std::string& contents,
                      std::string* error = nullptr);

// Append-only log with per-append durability. Open() truncates when
// `truncate` is true (fresh journal) and appends otherwise (resume).
class DurableAppendFile {
 public:
  DurableAppendFile() = default;
  ~DurableAppendFile() { Close(); }

  DurableAppendFile(const DurableAppendFile&) = delete;
  DurableAppendFile& operator=(const DurableAppendFile&) = delete;

  // Returns false and fills `error` on failure to open/create.
  bool Open(const std::string& path, bool truncate, std::string* error = nullptr);

  // Writes all of `data` then fsyncs. Returns false (and fills `error`) on
  // short writes, I/O errors, or an unopened file.
  bool Append(const std::string& data, std::string* error = nullptr);

  bool is_open() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
};

}  // namespace dibs

#endif  // SRC_UTIL_ATOMIC_FILE_H_
