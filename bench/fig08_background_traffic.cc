// Figure 8: impact of background traffic intensity.
// Sweep the background inter-arrival time 10-120ms at the default query load
// (300 qps, degree 40, 20KB) and report the 99th-percentile QCT and short-
// background-flow FCT for DCTCP vs DCTCP+DIBS. Paper result: DIBS cuts 99th
// QCT by ~20ms with <2ms of collateral FCT damage at every intensity.

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Figure 8", "Variable background traffic",
                    "incast degree 40, response 20KB, 300 qps; K=8 fat-tree");
  const Time duration = BenchDuration();
  const std::vector<int> interarrivals_ms = {10, 20, 40, 80, 120};

  SweepSpec spec;
  spec.name = "fig08";
  spec.axes.push_back(SchemeAxis({{"dctcp", Standard(DctcpConfig(), duration)},
                                  {"dibs", Standard(DibsConfig(), duration)}}));
  spec.axes.push_back(SweepAxis::Of<int>(
      "bg_interarrival_ms", interarrivals_ms,
      [](ExperimentConfig& c, int ms) { c.bg_interarrival = Time::Millis(ms); }));

  const std::vector<RunRecord> records = RunBenchSweep(std::move(spec));

  TablePrinter table({"bg_interarrival_ms", "qct99_dctcp_ms", "qct99_dibs_ms",
                      "bgfct99_dctcp_ms", "bgfct99_dibs_ms", "dibs_drops", "dctcp_drops"});
  table.PrintHeader();
  for (int ms : interarrivals_ms) {
    const std::string m = std::to_string(ms);
    const RunRecord& dctcp =
        FindRecord(records, {{"scheme", "dctcp"}, {"bg_interarrival_ms", m}});
    const RunRecord& dibs = FindRecord(records, {{"scheme", "dibs"}, {"bg_interarrival_ms", m}});
    table.PrintRow({TablePrinter::Int(static_cast<uint64_t>(ms)),
                    ResultCell(dctcp, TablePrinter::Num(dctcp.result.qct99_ms)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.qct99_ms)),
                    ResultCell(dctcp, TablePrinter::Num(dctcp.result.bg_fct99_ms)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.bg_fct99_ms)),
                    ResultCell(dibs, TablePrinter::Int(dibs.result.drops)),
                    ResultCell(dctcp, TablePrinter::Int(dctcp.result.drops))});
  }
  return 0;
}
