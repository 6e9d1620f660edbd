// §5.5.2: Dynamic Buffer Allocation (shared-memory switches).
// Model: per-switch shared pool (~1.7MB = 1133 MTU slots, Arista 7050QX)
// with dynamic-threshold partitioning. Paper result: DBA alone absorbs
// moderate incast (no loss, DIBS never triggers), but extreme incast
// overflows the whole shared memory — DCTCP+DBA drops while DIBS+DBA stays
// lossless and cuts the 99th QCT by ~75%.

#include <iostream>

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Sec 5.5.2", "Shared buffers with Dynamic Buffer Allocation",
                    "per-switch shared pool 1133 pkts (1.7MB), alpha=1; response 20KB");
  const Time duration = BenchDuration(Time::Millis(200));

  struct Load {
    int degree;
    int resp_kb;
  };
  // Degree 120 x 80KB emulates the paper's ">150 connections" overload (the
  // topology has 127 possible responders; extra bytes stand in for extra
  // connections per server).
  std::vector<RunSpec> runs;
  for (const Load& load : {Load{40, 20}, Load{100, 20}, Load{120, 80}}) {
    for (const char* scheme : {"dctcp", "dibs"}) {
      ExperimentConfig cfg =
          Standard(scheme == std::string("dibs") ? DibsConfig() : DctcpConfig(), duration);
      cfg.incast_degree = load.degree;
      cfg.response_bytes = static_cast<uint64_t>(load.resp_kb) * 1000;
      cfg.net.use_shared_buffer = true;
      cfg.net.shared_buffer_packets = 1133;
      cfg.net.shared_buffer_alpha = 1.0;
      cfg.drain = Time::Millis(300);
      runs.push_back(BenchRun(std::move(cfg), {{"degree", std::to_string(load.degree)},
                                               {"resp_kb", std::to_string(load.resp_kb)},
                                               {"scheme", scheme}}));
    }
  }
  const std::vector<RunRecord> records = RunBenchRuns("sec552", std::move(runs));

  TablePrinter table({"degree", "resp_kb", "scheme", "qct99_ms", "drops", "detours"});
  table.PrintHeader();
  for (const RunRecord& rec : records) {
    const ScenarioResult& r = rec.result;
    table.PrintRow({rec.points[0].value, rec.points[1].value, rec.points[2].value,
                    ResultCell(rec, TablePrinter::Num(r.qct99_ms)),
                    ResultCell(rec, TablePrinter::Int(r.drops)),
                    ResultCell(rec, TablePrinter::Int(r.detours))});
  }
  std::cout << "\n(paper: moderate incast -> zero loss and zero detours for both; overload -> "
               "DCTCP+DBA drops, DIBS+DBA lossless with ~75% lower 99th QCT)\n";
  return 0;
}
