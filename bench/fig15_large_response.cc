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
  const std::vector<int> sizes_kb = {60, 80, 100, 120, 140, 160};

  SweepSpec spec;
  spec.name = "fig15";
  spec.axes.push_back(SchemeAxis({{"dctcp", Standard(DctcpConfig(), duration)},
                                  {"dibs", Standard(DibsConfig(), duration)}}));
  spec.axes.push_back(
      SweepAxis::Of<int>("response_kb", sizes_kb, [](ExperimentConfig& c, int kb) {
        c.qps = 2000;
        c.response_bytes = static_cast<uint64_t>(kb) * 1000;
        c.drain = Time::Millis(400);
      }));

  const std::vector<RunRecord> records = RunBenchSweep(std::move(spec));

  TablePrinter table({"response_kb", "qct99_dctcp_ms", "qct99_dibs_ms", "bgfct99_dctcp_ms",
                      "bgfct99_dibs_ms", "dibs_drops"});
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
                    ResultCell(dibs, TablePrinter::Int(dibs.result.drops))});
  }
  return 0;
}
