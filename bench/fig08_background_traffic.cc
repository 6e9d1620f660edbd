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
  TablePrinter table({"bg_interarrival_ms", "qct99_dctcp_ms", "qct99_dibs_ms",
                      "bgfct99_dctcp_ms", "bgfct99_dibs_ms", "dibs_drops", "dctcp_drops"});
  table.PrintHeader();
  for (int ms : {10, 20, 40, 80, 120}) {
    ExperimentConfig dctcp = Standard(DctcpConfig(), duration);
    ExperimentConfig dibs = Standard(DibsConfig(), duration);
    dctcp.bg_interarrival = Time::Millis(ms);
    dibs.bg_interarrival = Time::Millis(ms);
    const ComparisonRow row = CompareSchemes(dctcp, dibs);
    table.PrintRow({TablePrinter::Int(static_cast<uint64_t>(ms)),
                    TablePrinter::Num(row.dctcp.qct99_ms), TablePrinter::Num(row.dibs.qct99_ms),
                    TablePrinter::Num(row.dctcp.bg_fct99_ms),
                    TablePrinter::Num(row.dibs.bg_fct99_ms),
                    TablePrinter::Int(row.dibs.drops), TablePrinter::Int(row.dctcp.drops)});
  }
  return 0;
}
