// Figure 15: large query responses (60-160KB) at a high query rate (2000
// qps). Paper result: unlike the extreme-qps case (Figure 14), DIBS does NOT
// break — large responses take several RTTs, which gives DCTCP's ECN loop
// time to throttle the senders, so detour load stays bounded.

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Figure 15", "Large query response sizes",
                    "bg inter-arrival 120ms, incast degree 40, 2000 qps");
  const Time duration = BenchDuration(Time::Millis(100));
  TablePrinter table({"response_kb", "qct99_dctcp_ms", "qct99_dibs_ms", "bgfct99_dctcp_ms",
                      "bgfct99_dibs_ms", "dibs_drops"});
  table.PrintHeader();
  for (int kb : {60, 80, 100, 120, 140, 160}) {
    ExperimentConfig dctcp = Standard(DctcpConfig(), duration);
    ExperimentConfig dibs = Standard(DibsConfig(), duration);
    for (ExperimentConfig* c : {&dctcp, &dibs}) {
      c->qps = 2000;
      c->response_bytes = static_cast<uint64_t>(kb) * 1000;
      c->drain = Time::Millis(400);
    }
    const ComparisonRow row = CompareSchemes(dctcp, dibs);
    table.PrintRow({TablePrinter::Int(static_cast<uint64_t>(kb)),
                    TablePrinter::Num(row.dctcp.qct99_ms), TablePrinter::Num(row.dibs.qct99_ms),
                    TablePrinter::Num(row.dctcp.bg_fct99_ms),
                    TablePrinter::Num(row.dibs.bg_fct99_ms),
                    TablePrinter::Int(row.dibs.drops)});
  }
  return 0;
}
