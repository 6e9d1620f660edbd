// Figure 10: impact of query response size.
// Sweep the per-responder response 20-50KB. Paper result: DIBS's QCT edge
// shrinks as responses grow (21ms at 20KB down to 6ms at 50KB) because big
// detour swarms start triggering spurious timeouts; background damage grows
// slightly (1.2ms -> 4.4ms).

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Figure 10", "Variable response size",
                    "bg inter-arrival 120ms, incast degree 40, 300 qps");
  const Time duration = BenchDuration();
  const std::vector<int> sizes_kb = {20, 30, 40, 50};

  SweepSpec spec;
  spec.name = "fig10";
  spec.axes.push_back(SchemeAxis({{"dctcp", Standard(DctcpConfig(), duration)},
                                  {"dibs", Standard(DibsConfig(), duration)}}));
  spec.axes.push_back(
      SweepAxis::Of<int>("response_kb", sizes_kb, [](ExperimentConfig& c, int kb) {
        c.response_bytes = static_cast<uint64_t>(kb) * 1000;
      }));

  const std::vector<RunRecord> records = RunBenchSweep(std::move(spec));

  TablePrinter table({"response_kb", "qct99_dctcp_ms", "qct99_dibs_ms", "bgfct99_dctcp_ms",
                      "bgfct99_dibs_ms", "dctcp_drops", "dibs_drops"});
  table.PrintHeader();
  for (int kb : sizes_kb) {
    const std::string k = std::to_string(kb);
    const RunRecord& dctcp = FindRecord(records, {{"scheme", "dctcp"}, {"response_kb", k}});
    const RunRecord& dibs = FindRecord(records, {{"scheme", "dibs"}, {"response_kb", k}});
    table.PrintRow({TablePrinter::Int(static_cast<uint64_t>(kb)),
                    ResultCell(dctcp, TablePrinter::Num(dctcp.result.qct99_ms)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.qct99_ms)),
                    ResultCell(dctcp, TablePrinter::Num(dctcp.result.bg_fct99_ms)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.bg_fct99_ms)),
                    ResultCell(dctcp, TablePrinter::Int(dctcp.result.drops)),
                    ResultCell(dibs, TablePrinter::Int(dibs.result.drops))});
  }
  return 0;
}
