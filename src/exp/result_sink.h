// Structured export for sweep results. The engine delivers RunRecords to a
// sink strictly in matrix order (index 0, 1, 2, ...) no matter which worker
// finished first, so any sink's output is deterministic for a given spec.
//
// The JSONL line format lives in record_codec.h; the journal and the
// process-isolation pipe share it. The CSV columns are the record's scalars,
// read off the same field lists (RunRecord::ForEachField).
//
// Both file sinks flush after every record, so a sweep killed mid-flight
// always leaves a complete, parseable prefix on disk.

#ifndef SRC_EXP_RESULT_SINK_H_
#define SRC_EXP_RESULT_SINK_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/exp/run_record.h"

namespace dibs {

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  // Called once per run, in run-index order.
  virtual void OnRecord(const RunRecord& record) = 0;

  // Called once after the last record. Default: nothing.
  virtual void Finish() {}
};

// Collects records in memory. The benches print their tables from the
// records RunAll returns, not from a sink.
class MemorySink : public ResultSink {
 public:
  void OnRecord(const RunRecord& record) override { records_.push_back(record); }

  const std::vector<RunRecord>& records() const { return records_; }

 private:
  std::vector<RunRecord> records_;
};

// One JSON object per record per line (record_codec format). Doubles are
// printed with round-trip precision; NaN/inf (possible in percentile math
// on empty sets) map to null. Flushes per record.
class JsonlSink : public ResultSink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(os) {}

  void OnRecord(const RunRecord& record) override;
  void Finish() override { os_.flush(); }

 private:
  std::ostream& os_;
};

// One header row, then one column per scalar field, in record order, with
// RFC-4180-style quoting. A Summary becomes one <key>_<stat> column per
// statistic; the axes and the per-reason drop table each fold into one
// "name=value;..." column; bools are 1/0 and non-finite doubles are empty;
// the monitor series stay JSONL-only. Flushes per record.
class CsvSink : public ResultSink {
 public:
  explicit CsvSink(std::ostream& os) : os_(os) {}

  void OnRecord(const RunRecord& record) override;
  void Finish() override { os_.flush(); }

 private:
  std::ostream& os_;
  bool wrote_header_ = false;
};

// Fans records out to several sinks (non-owning).
class MultiSink : public ResultSink {
 public:
  explicit MultiSink(std::vector<ResultSink*> sinks) : sinks_(std::move(sinks)) {}

  void OnRecord(const RunRecord& record) override {
    for (ResultSink* s : sinks_) {
      s->OnRecord(record);
    }
  }
  void Finish() override {
    for (ResultSink* s : sinks_) {
      s->Finish();
    }
  }

 private:
  std::vector<ResultSink*> sinks_;
};

}  // namespace dibs

#endif  // SRC_EXP_RESULT_SINK_H_
