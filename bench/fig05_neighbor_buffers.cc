// Figure 5: when some switch is congested, how much buffer space is free in
// its 1-hop and 2-hop switch neighborhoods? Paper result: nearly 80% of
// neighboring buffers are empty in all but the extreme workload — the
// headroom DIBS borrows.

#include <iostream>

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Figure 5", "Free buffer fraction near congested switches",
                    "DCTCP+DIBS, degree 40, response 20KB, bg 120ms");
  struct Point {
    const char* name;
    double qps;
    Time duration;
  };
  const Point points[] = {
      {"baseline (300 qps)", 300, BenchDuration(Time::Millis(300))},
      {"heavy (2000 qps)", 2000, BenchDuration(Time::Millis(150))},
      {"extreme (10000 qps)", 10000, BenchDuration(Time::Millis(60))},
  };

  std::vector<RunSpec> runs;
  for (const Point& p : points) {
    ExperimentConfig cfg = Standard(DibsConfig(), p.duration);
    cfg.qps = p.qps;
    cfg.monitor_interval = Time::Micros(500);
    runs.push_back(BenchRun(std::move(cfg), {{"workload", p.name}}));
  }
  const std::vector<RunRecord> records = RunBenchRuns("fig05", std::move(runs));

  TablePrinter table({"workload", "hops", "p10_free", "p50_free", "mean_free", "samples"});
  table.PrintHeader();
  for (const RunRecord& rec : records) {
    for (int hops = 1; hops <= 2; ++hops) {
      const std::vector<double>& free =
          hops == 1 ? rec.result.one_hop_free : rec.result.two_hop_free;
      table.PrintRow({rec.points[0].value, TablePrinter::Int(static_cast<uint64_t>(hops)),
                      ResultCell(rec, TablePrinter::Num(Percentile(free, 10), 3)),
                      ResultCell(rec, TablePrinter::Num(Percentile(free, 50), 3)),
                      ResultCell(rec, TablePrinter::Num(Mean(free), 3)),
                      ResultCell(rec, TablePrinter::Int(free.size()))});
    }
  }
  std::cout << "\n(paper: ~80% of neighboring buffers are free except under the extreme load)\n";
  return 0;
}
