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
  TablePrinter table({"oversub", "factor", "qct99_dctcp_ms", "qct99_dibs_ms",
                      "bgfct99_dctcp_ms", "bgfct99_dibs_ms"});
  table.PrintHeader();
  for (double factor : {1.0, 2.0, 3.0, 4.0}) {
    ExperimentConfig dctcp = Standard(DctcpConfig(), duration);
    ExperimentConfig dibs = Standard(DibsConfig(), duration);
    dctcp.oversubscription = factor;
    dibs.oversubscription = factor;
    const ComparisonRow row = CompareSchemes(dctcp, dibs);
    const int oversub = static_cast<int>(factor * factor);
    table.PrintRow({"1:" + std::to_string(oversub), TablePrinter::Num(factor, 0),
                    TablePrinter::Num(row.dctcp.qct99_ms), TablePrinter::Num(row.dibs.qct99_ms),
                    TablePrinter::Num(row.dctcp.bg_fct99_ms),
                    TablePrinter::Num(row.dibs.bg_fct99_ms)});
  }
  return 0;
}
