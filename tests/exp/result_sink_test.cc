// Result export tests: the JSONL and CSV sinks round-trip the RunRecord /
// ScenarioResult schema (values parse back to what was written, special
// characters stay escaped, non-finite doubles map to null/empty), and
// MultiSink fans records out to every child.

#include "src/exp/result_sink.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "src/exp/record_codec.h"
#include "src/util/json.h"
#include "tests/exp/full_record.h"

namespace dibs {
namespace {

RunRecord SampleRecord() {
  RunRecord r;
  r.index = 3;
  r.sweep = "fig07";
  r.points = {{"scheme", "dibs"}, {"buffer_pkts", "100"}};
  r.replication = 1;
  r.seed = 42;
  r.status = RunStatus::kOk;
  r.wall_ms = 123.5;
  r.events_per_sec = 2.5e6;
  r.result.qct99_ms = 17.25;
  r.result.bg_fct99_ms = 3.125;
  r.result.qct.count = 130;
  r.result.qct.p50 = 8.5;
  r.result.queries_completed = 130;
  r.result.flows_completed = 900;
  r.result.drops = 7;
  r.result.detours = 12345;
  r.result.detoured_fraction = 0.0625;
  r.result.detour_count_p99 = 40;
  r.result.events_processed = 1000000;
  r.result.hot_fractions = {0.5, 0.25};
  return r;
}

// Pulls the raw token following "<key>": from a JSON line. Good enough for
// the flat, known-shape objects the sink emits.
std::string JsonToken(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) {
    return "<missing>";
  }
  size_t start = at + needle.size();
  size_t end = start;
  if (line[start] == '"') {
    end = line.find('"', start + 1) + 1;
  } else if (line[start] == '[' || line[start] == '{') {
    const char open = line[start];
    const char close = open == '[' ? ']' : '}';
    int depth = 0;
    for (end = start; end < line.size(); ++end) {
      depth += line[end] == open ? 1 : line[end] == close ? -1 : 0;
      if (depth == 0) {
        ++end;
        break;
      }
    }
  } else {
    end = line.find_first_of(",}", start);
  }
  return line.substr(start, end - start);
}

TEST(JsonlSinkTest, RoundTripsScalarFields) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.OnRecord(SampleRecord());
  sink.Finish();

  const std::string line = os.str();
  ASSERT_EQ(line.back(), '\n');
  EXPECT_EQ(JsonToken(line, "sweep"), "\"fig07\"");
  EXPECT_EQ(JsonToken(line, "run"), "3");
  EXPECT_EQ(JsonToken(line, "axes"), "{\"scheme\":\"dibs\",\"buffer_pkts\":\"100\"}");
  EXPECT_EQ(JsonToken(line, "replication"), "1");
  EXPECT_EQ(JsonToken(line, "seed"), "42");
  EXPECT_EQ(JsonToken(line, "status"), "\"ok\"");
  EXPECT_DOUBLE_EQ(std::stod(JsonToken(line, "wall_ms")), 123.5);
  EXPECT_DOUBLE_EQ(std::stod(JsonToken(line, "events_per_sec")), 2.5e6);
  EXPECT_DOUBLE_EQ(std::stod(JsonToken(line, "qct99_ms")), 17.25);
  EXPECT_DOUBLE_EQ(std::stod(JsonToken(line, "bg_fct99_ms")), 3.125);
  EXPECT_DOUBLE_EQ(std::stod(JsonToken(line, "detoured_fraction")), 0.0625);
  EXPECT_EQ(JsonToken(line, "detour_count_p99"), "40");
  EXPECT_EQ(JsonToken(line, "queries_completed"), "130");
  EXPECT_EQ(JsonToken(line, "drops"), "7");
  EXPECT_EQ(JsonToken(line, "detours"), "12345");
  EXPECT_EQ(JsonToken(line, "events_processed"), "1000000");
  EXPECT_EQ(JsonToken(line, "hot_fractions"), "[0.5,0.25]");
}

TEST(JsonlSinkTest, EscapesStringsAndMapsNonFiniteToNull) {
  RunRecord r = SampleRecord();
  r.status = RunStatus::kFailed;
  r.error = "line1\nsaid \"boom\"\\path";
  r.result.qct99_ms = std::numeric_limits<double>::quiet_NaN();
  r.result.bg_fct99_ms = std::numeric_limits<double>::infinity();

  std::ostringstream os;
  JsonlSink sink(os);
  sink.OnRecord(r);
  const std::string line = os.str();
  EXPECT_EQ(JsonToken(line, "status"), "\"failed\"");
  EXPECT_NE(line.find("\"error\":\"line1\\nsaid \\\"boom\\\"\\\\path\""),
            std::string::npos);
  EXPECT_EQ(JsonToken(line, "qct99_ms"), "null");
  EXPECT_EQ(JsonToken(line, "bg_fct99_ms"), "null");
}

TEST(JsonlSinkTest, OneLinePerRecord) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.OnRecord(SampleRecord());
  sink.OnRecord(SampleRecord());
  std::istringstream is(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2);
}

std::vector<std::string> SplitCsvRow(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        field += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else {
      field += c;
    }
  }
  fields.push_back(field);
  return fields;
}

TEST(CsvSinkTest, HeaderOnceAndRowsRoundTrip) {
  std::ostringstream os;
  CsvSink sink(os);
  RunRecord r = SampleRecord();
  r.error = "a,b \"quoted\"";  // exercises RFC-4180 quoting
  sink.OnRecord(r);
  sink.OnRecord(SampleRecord());
  sink.Finish();

  std::istringstream is(os.str());
  std::string header;
  std::string row1;
  std::string row2;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row1));
  ASSERT_TRUE(std::getline(is, row2));

  const std::vector<std::string> cols = SplitCsvRow(header);
  const std::vector<std::string> vals = SplitCsvRow(row1);
  ASSERT_EQ(cols.size(), vals.size());

  auto value_of = [&](const std::string& col) -> std::string {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == col) {
        return vals[i];
      }
    }
    return "<missing>";
  };
  EXPECT_EQ(value_of("sweep"), "fig07");
  EXPECT_EQ(value_of("run"), "3");
  EXPECT_EQ(value_of("axes"), "scheme=dibs;buffer_pkts=100");
  EXPECT_EQ(value_of("seed"), "42");
  EXPECT_EQ(value_of("status"), "ok");
  EXPECT_EQ(value_of("error"), "a,b \"quoted\"");
  EXPECT_DOUBLE_EQ(std::stod(value_of("qct99_ms")), 17.25);
  EXPECT_EQ(value_of("drops"), "7");
  EXPECT_EQ(value_of("events_processed"), "1000000");

  // Second record: data row only (no second header).
  EXPECT_EQ(SplitCsvRow(row2).size(), cols.size());
  EXPECT_EQ(SplitCsvRow(row2)[0], "fig07");
}

TEST(CsvSinkTest, NonFiniteBecomesEmptyField) {
  std::ostringstream os;
  CsvSink sink(os);
  RunRecord r = SampleRecord();
  r.result.qct99_ms = std::numeric_limits<double>::quiet_NaN();
  sink.OnRecord(r);
  std::istringstream is(os.str());
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row));
  const std::vector<std::string> cols = SplitCsvRow(header);
  const std::vector<std::string> vals = SplitCsvRow(row);
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] == "qct99_ms") {
      EXPECT_EQ(vals[i], "");
    }
  }
}

// The CSV row is exactly the record's scalars: every number, bool or string
// member of the JSONL line, at the top level or in "result", is a column
// with the same value. A Summary member is one <key>_<stat> column per
// statistic, axes and drops_by_reason fold into one name=value;... column,
// and arrays stay JSONL-only.
TEST(CsvSinkTest, CarriesEveryJsonlScalar) {
  const RunRecord r = FullRecord();
  std::ostringstream os;
  CsvSink sink(os);
  sink.OnRecord(r);
  std::istringstream is(os.str());
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row));
  const std::vector<std::string> cols = SplitCsvRow(header);
  const std::vector<std::string> vals = SplitCsvRow(row);
  ASSERT_EQ(cols.size(), vals.size());
  std::map<std::string, std::string> csv;
  for (size_t i = 0; i < cols.size(); ++i) {
    csv[cols[i]] = vals[i];
  }

  json::Value root;
  std::string error;
  ASSERT_TRUE(json::Parse(EncodeRunRecord(r), &root, &error)) << error;
  const json::Value* result = json::Find(root, "result");
  ASSERT_NE(result, nullptr);
  using Kind = json::Value::Kind;
  size_t checked = 0;
  // The CSV value of `column`, or nullopt (and a failure) when it is absent.
  auto column = [&](const std::string& name) -> std::optional<std::string> {
    ++checked;
    const auto it = csv.find(name);
    if (it == csv.end()) {
      ADD_FAILURE() << "no CSV column " << name;
      return std::nullopt;
    }
    return it->second;
  };
  auto expect_scalar = [&](const std::string& name, const json::Value& v) {
    const std::optional<std::string> got = column(name);
    if (!got) {
      return;
    }
    if (v.kind == Kind::kNumber) {
      EXPECT_DOUBLE_EQ(std::stod(*got), v.number) << name;
    } else if (v.kind == Kind::kBool) {
      EXPECT_EQ(*got, v.boolean ? "1" : "0") << name;
    } else {
      EXPECT_EQ(v.kind, Kind::kString) << name;
      EXPECT_EQ(*got, v.text) << name;
    }
  };
  for (const json::Value* level : {static_cast<const json::Value*>(&root), result}) {
    for (const auto& [key, value] : level->fields) {
      if (key == "result" || value.kind == Kind::kArray) {
        continue;
      }
      if (key == "axes" || key == "drops_by_reason") {
        std::string folded;
        for (const auto& [name, member] : value.fields) {
          folded += (folded.empty() ? "" : ";") + name + "=" + member.text;
        }
        EXPECT_EQ(column(key), folded);
      } else if (value.kind == Kind::kObject) {
        for (const auto& [stat, member] : value.fields) {
          expect_scalar(key + "_" + stat, member);
        }
      } else {
        expect_scalar(key, value);
      }
    }
  }
  EXPECT_EQ(checked, cols.size()) << "the CSV has columns the JSONL lacks";
}

TEST(MultiSinkTest, FansOutToEveryChildInOrder) {
  MemorySink a;
  MemorySink b;
  MultiSink multi({&a, &b});
  multi.OnRecord(SampleRecord());
  multi.Finish();
  ASSERT_EQ(a.records().size(), 1u);
  ASSERT_EQ(b.records().size(), 1u);
  EXPECT_EQ(a.records()[0].index, 3);
  EXPECT_EQ(b.records()[0].seed, 42u);
}

}  // namespace
}  // namespace dibs
