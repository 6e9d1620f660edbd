#include "src/exp/result_sink.h"

#include <cmath>
#include <concepts>

#include "src/exp/record_codec.h"
#include "src/util/json.h"

namespace dibs {
namespace {

std::string CsvEscape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

// The header and one row, built by walking the record's field lists
// (run_record.h): one column per scalar, in record order.
class CsvColumns {
 public:
  template <std::integral T>
  void operator()(const char* key, T v) {
    Add(key, std::to_string(v));
  }
  void operator()(const char* key, bool v) { Add(key, v ? "1" : "0"); }
  void operator()(const char* key, double v) {
    Add(key, std::isfinite(v) ? json::Num(v) : "");
  }
  void operator()(const char* key, const std::string& v) { Add(key, CsvEscape(v)); }
  void operator()(const char* key, RunStatus v) { Add(key, RunStatusName(v)); }

  // The axes fold into one "scheme=dibs;buffer_pkts=100" column, so the
  // header is sweep-independent.
  void operator()(const char* key, const std::vector<AxisPoint>& points) {
    std::string folded;
    for (const AxisPoint& p : points) {
      folded += (folded.empty() ? "" : ";") + p.axis + "=" + p.value;
    }
    Add(key, CsvEscape(folded));
  }
  // So does the drop table: "queue-overflow=12;no-detour-available=0;...".
  void operator()(const char* key, const std::vector<uint64_t>& by_reason) {
    std::string folded;
    for (size_t i = 0; i < kNumDropReasons; ++i) {
      folded += std::string(i == 0 ? "" : ";") +
                DropReasonName(static_cast<DropReason>(i)) + "=" +
                std::to_string(i < by_reason.size() ? by_reason[i] : 0);
    }
    Add(key, folded);
  }
  // The monitor series stay JSONL-only.
  void operator()(const char*, const std::vector<double>&) {}

  // The result's fields are columns of their own; a Summary's are
  // <key>_<stat>.
  void operator()(const char*, const ScenarioResult& result) {
    ScenarioResult::ForEachField(result, *this);
  }
  void operator()(const char* key, const Summary& summary) {
    prefix_ = std::string(key) + "_";
    Summary::ForEachField(summary, *this);
    prefix_.clear();
  }

  std::string header;
  std::string row;

 private:
  void Add(const char* key, const std::string& value) {
    const char* separator = header.empty() ? "" : ",";
    header.append(separator).append(prefix_).append(key);
    row.append(separator).append(value);
  }

  std::string prefix_;
};

}  // namespace

void JsonlSink::OnRecord(const RunRecord& r) {
  // Flush per record so a killed sweep leaves a complete, parseable prefix
  // on disk; once write() has the bytes, only power loss can take them back.
  os_ << EncodeRunRecord(r) << "\n" << std::flush;
}

void CsvSink::OnRecord(const RunRecord& r) {
  CsvColumns columns;
  RunRecord::ForEachField(r, columns);
  if (!wrote_header_) {
    os_ << columns.header << "\n";
    wrote_header_ = true;
  }
  os_ << columns.row << "\n";
  os_.flush();
}

}  // namespace dibs
