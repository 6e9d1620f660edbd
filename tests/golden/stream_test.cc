// Stream lock: the unsampled packet-lifecycle trace stream of every golden
// cell (tests/golden/golden_cells.h), as an FNV-1a-64 digest over the
// encoded JSONL lines plus their count.
//
// A golden row (golden_test.cc) hashes the whole RunRecord, events_processed
// included, so a change that drops an idle event or a record field moves it
// even when every packet does exactly the same thing. These rows pin each
// packet event's time, node, port and queue depth and nothing else: a change
// that touches only bookkeeping keeps them while it re-records the record
// rows. Each cell is its own test case, so ctest spreads them over -j.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>

#include "src/harness/scenario.h"
#include "tests/golden/golden_cells.h"

namespace dibs::golden {
namespace {

struct StreamRow {
  const char* name;
  uint64_t digest;  // FNV-1a-64 over every encoded line, newlines included
  uint64_t lines;
};

std::string FormatStreamRow(const StreamRow& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "{\"%s\", 0x%016" PRIx64 "ull, %" PRIu64 "},", r.name,
                r.digest, r.lines);
  return buf;
}

// Recorded from the code before the link and buffer samplers became one
// timer-free monitor.
const StreamRow kGoldenStream[] = {
    {"dibs_incast_background", 0x446dd1966a4c1d1eull, 1861951},
    {"pfabric_rto", 0xa96b3c7ec11d6e4eull, 1855598},
    {"dctcp_pfc", 0xe0f7535287812c8aull, 204110},
    {"dibs_faults", 0x5e1a3a7305b780efull, 1971765},
    {"dibs_guard_watchdog", 0xf85848b66463731bull, 1674831},
    {"dctcp_monitors_shared_buffer", 0x3b023cb7e0fd5431ull, 1617628},
    {"dibs_load_aware", 0x1518d56732fdba29ull, 1999978},
};

// Names each case's ctest after its cell.
void PrintTo(const StreamRow& row, std::ostream* os) { *os << row.name; }

class GoldenStream : public testing::TestWithParam<StreamRow> {};

TEST_P(GoldenStream, MatchesCommittedRow) {
  const StreamRow& want = GetParam();
  ExperimentConfig config = CellConfig(want.name);
  config.trace.enabled = true;
  config.trace.sample = 1.0;
  Scenario scenario(config);
  DigestSink sink;
  scenario.trace()->bus()->AddSink(&sink);
  scenario.Run();
  const StreamRow got{want.name, sink.digest, sink.lines};
  EXPECT_TRUE(got.digest == want.digest && got.lines == want.lines)
      << want.name << ": want " << FormatStreamRow(want) << "\n"
      << "replacement row:\n    " << FormatStreamRow(got);
}

INSTANTIATE_TEST_SUITE_P(Cells, GoldenStream, testing::ValuesIn(kGoldenStream));

}  // namespace
}  // namespace dibs::golden
