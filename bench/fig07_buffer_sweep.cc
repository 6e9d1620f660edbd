// Figure 7: 99th-percentile QCT vs switch buffer size (25-700 packets/port),
// DCTCP vs DCTCP+DIBS vs DCTCP with infinite buffers. Paper result: DIBS
// tracks the infinite-buffer ideal even at small buffers, while plain DCTCP
// degrades badly (log-scale QCT) as buffers shrink.

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Figure 7", "QCT vs switch buffer size",
                    "defaults: 300 qps, degree 40, response 20KB, bg 120ms");
  const Time duration = BenchDuration();
  const std::vector<size_t> buffers = {25, 100, 300, 500, 700};

  SweepSpec spec;
  spec.name = "fig07";
  spec.seed = BenchSeed();
  spec.axes.push_back(SchemeAxis({{"dctcp", Standard(DctcpConfig(), duration)},
                                  {"dibs", Standard(DibsConfig(), duration)}}));
  spec.axes.push_back(SweepAxis::Of<size_t>(
      "buffer_pkts", buffers,
      [](ExperimentConfig& c, size_t b) { c.net.switch_buffer_packets = b; }));

  // The infinite-buffer reference is buffer-size independent: one extra run
  // alongside the matrix so it shares the worker pool.
  std::vector<RunSpec> runs = spec.Expand();
  runs.push_back(BenchRun(Standard(InfiniteBufferConfig(), duration), {{"scheme", "inf"}}));

  const std::vector<RunRecord> records = RunBenchRuns(spec.name, std::move(runs));
  const RunRecord& infinite = FindRecord(records, {{"scheme", "inf"}});

  TablePrinter table({"buffer_pkts", "qct99_dctcp_ms", "qct99_dibs_ms", "qct99_inf_ms",
                      "dctcp_drops", "dibs_drops"});
  table.PrintHeader();
  for (size_t buffer : buffers) {
    const std::string b = std::to_string(buffer);
    const RunRecord& dctcp =
        FindRecord(records, {{"scheme", "dctcp"}, {"buffer_pkts", b}});
    const RunRecord& dibs = FindRecord(records, {{"scheme", "dibs"}, {"buffer_pkts", b}});
    table.PrintRow({TablePrinter::Int(buffer),
                    ResultCell(dctcp, TablePrinter::Num(dctcp.result.qct99_ms)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.qct99_ms)),
                    ResultCell(infinite, TablePrinter::Num(infinite.result.qct99_ms)),
                    ResultCell(dctcp, TablePrinter::Int(dctcp.result.drops)),
                    ResultCell(dibs, TablePrinter::Int(dibs.result.drops))});
  }
  return 0;
}
