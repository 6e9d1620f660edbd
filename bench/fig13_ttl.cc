// Figure 13: limiting detours via the packet TTL (12-255) under heavy
// background traffic. Paper result: DIBS QCT improves with higher TTL (low
// TTLs force TTL-expiry drops); TTL barely affects background FCT; DCTCP is
// TTL-insensitive.

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Figure 13", "Variable max TTL",
                    "bg inter-arrival 10ms, 300 qps, degree 40, response 20KB; "
                    "network diameter 6");
  const Time duration = BenchDuration(Time::Millis(200));
  const std::vector<int> ttls = {12, 24, 36, 48, 255};

  SweepSpec spec;
  spec.name = "fig13";
  spec.seed = BenchSeed();
  SweepAxis ttl_axis = SweepAxis::Of<int>("ttl", ttls, [duration](ExperimentConfig& c, int ttl) {
    c = Standard(DibsConfig(), duration);
    c.bg_interarrival = Time::Millis(10);
    c.net.initial_ttl = static_cast<uint8_t>(ttl);
  });
  spec.axes.push_back(std::move(ttl_axis));

  // DCTCP reference (TTL-independent; shown flat in the paper): one extra
  // run sharing the worker pool with the TTL sweep.
  std::vector<RunSpec> runs = spec.Expand();
  ExperimentConfig dctcp_config = Standard(DctcpConfig(), duration);
  dctcp_config.bg_interarrival = Time::Millis(10);
  runs.push_back(BenchRun(std::move(dctcp_config), {{"scheme", "dctcp"}}));

  const std::vector<RunRecord> records = RunBenchRuns(spec.name, std::move(runs));
  const RunRecord& dctcp = FindRecord(records, {{"scheme", "dctcp"}});

  TablePrinter table({"ttl", "qct99_dibs_ms", "bgfct99_dibs_ms", "ttl_drops",
                      "qct99_dctcp_ms", "bgfct99_dctcp_ms"});
  table.PrintHeader();
  for (int ttl : ttls) {
    const RunRecord& dibs = FindRecord(records, {{"ttl", std::to_string(ttl)}});
    table.PrintRow({TablePrinter::Int(static_cast<uint64_t>(ttl)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.qct99_ms)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.bg_fct99_ms)),
                    ResultCell(dibs, TablePrinter::Int(dibs.result.ttl_drops)),
                    ResultCell(dctcp, TablePrinter::Num(dctcp.result.qct99_ms)),
                    ResultCell(dctcp, TablePrinter::Num(dctcp.result.bg_fct99_ms))});
  }
  return 0;
}
