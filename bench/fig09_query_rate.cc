// Figure 9: impact of query arrival rate.
// Sweep 300-2000 qps at default background (120ms inter-arrival). Paper
// result: DIBS improves 99th QCT by ~20ms throughout; at 2000 qps DIBS even
// improves background FCT because DCTCP alone starts dropping.

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Figure 9", "Variable query arrival rate",
                    "bg inter-arrival 120ms, incast degree 40, response 20KB");
  const std::vector<int> rates = {300, 500, 1000, 1500, 2000};

  SweepSpec spec;
  spec.name = "fig09";
  spec.axes.push_back(SchemeAxis({{"dctcp", DctcpConfig()}, {"dibs", DibsConfig()}}));
  spec.axes.push_back(SweepAxis::Of<int>("qps", rates, [](ExperimentConfig& c, int qps) {
    // Heavier query rates cost proportionally more wall time; shrink the
    // simulated window to keep the sweep fast while retaining >=60 queries.
    const Time duration = BenchDuration(qps <= 500 ? Time::Millis(400) : Time::Millis(200));
    c = Standard(c, duration);
    c.qps = qps;
  }));

  const std::vector<RunRecord> records = RunBenchSweep(std::move(spec));

  TablePrinter table({"qps", "qct99_dctcp_ms", "qct99_dibs_ms", "bgfct99_dctcp_ms",
                      "bgfct99_dibs_ms", "dctcp_drops", "dibs_drops", "detour_frac"});
  table.PrintHeader();
  for (int qps : rates) {
    const std::string q = std::to_string(qps);
    const RunRecord& dctcp = FindRecord(records, {{"scheme", "dctcp"}, {"qps", q}});
    const RunRecord& dibs = FindRecord(records, {{"scheme", "dibs"}, {"qps", q}});
    table.PrintRow({TablePrinter::Int(static_cast<uint64_t>(qps)),
                    ResultCell(dctcp, TablePrinter::Num(dctcp.result.qct99_ms)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.qct99_ms)),
                    ResultCell(dctcp, TablePrinter::Num(dctcp.result.bg_fct99_ms)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.bg_fct99_ms)),
                    ResultCell(dctcp, TablePrinter::Int(dctcp.result.drops)),
                    ResultCell(dibs, TablePrinter::Int(dibs.result.drops)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.detoured_fraction, 3))});
  }
  return 0;
}
