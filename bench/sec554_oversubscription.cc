// §5.5.4: oversubscribed fabrics. Inter-switch links are slowed by 2/3/4x,
// giving 1:4 / 1:9 / 1:16 oversubscription. Paper result: DIBS's ~20ms QCT
// advantage persists at every oversubscription level (the receiver's last
// hop stays the bottleneck), with background FCT unaffected.

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Sec 5.5.4", "Oversubscription",
                    "fabric rate = host rate / factor; defaults otherwise");
  const Time duration = BenchDuration();
  const std::vector<int> factors = {1, 2, 3, 4};

  SweepSpec spec;
  spec.name = "sec554";
  spec.axes.push_back(SchemeAxis({{"dctcp", Standard(DctcpConfig(), duration)},
                                  {"dibs", Standard(DibsConfig(), duration)}}));
  spec.axes.push_back(SweepAxis::Of<int>(
      "factor", factors, [](ExperimentConfig& c, int f) { c.oversubscription = f; }));

  const std::vector<RunRecord> records = RunBenchSweep(std::move(spec));

  TablePrinter table({"oversub", "factor", "qct99_dctcp_ms", "qct99_dibs_ms",
                      "bgfct99_dctcp_ms", "bgfct99_dibs_ms"});
  table.PrintHeader();
  for (int factor : factors) {
    const std::string f = std::to_string(factor);
    const RunRecord& dctcp = FindRecord(records, {{"scheme", "dctcp"}, {"factor", f}});
    const RunRecord& dibs = FindRecord(records, {{"scheme", "dibs"}, {"factor", f}});
    table.PrintRow({"1:" + std::to_string(factor * factor), f,
                    ResultCell(dctcp, TablePrinter::Num(dctcp.result.qct99_ms)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.qct99_ms)),
                    ResultCell(dctcp, TablePrinter::Num(dctcp.result.bg_fct99_ms)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.bg_fct99_ms))});
  }
  return 0;
}
