// Figure 4: fraction of links >= 90% utilized, as a CDF over time, for the
// baseline (300 qps), heavy (2000 qps), and extreme (10000 qps) workloads.
// Paper result: at any instant only a handful of links are hot, even under
// the heavy workload; only the extreme load changes the picture.

#include <iostream>

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Figure 4", "Hot links (>= 90% utilization) over time",
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
    cfg.monitor_interval = Time::Millis(1);
    runs.push_back(BenchRun(std::move(cfg), {{"workload", p.name}}));
  }
  const std::vector<RunRecord> records = RunBenchRuns("fig04", std::move(runs));

  TablePrinter table({"workload", "p50_hot", "p90_hot", "p99_hot", "max_hot"});
  table.PrintHeader();
  for (const RunRecord& rec : records) {
    const std::vector<double>& hot = rec.result.hot_fractions;
    table.PrintRow({rec.points[0].value, ResultCell(rec, TablePrinter::Num(Percentile(hot, 50), 3)),
                    ResultCell(rec, TablePrinter::Num(Percentile(hot, 90), 3)),
                    ResultCell(rec, TablePrinter::Num(Percentile(hot, 99), 3)),
                    ResultCell(rec, TablePrinter::Num(Percentile(hot, 100), 3))});
  }

  std::cout << "\n-- CDF series (fraction of links hot vs fraction of time) --\n";
  for (const RunRecord& rec : records) {
    PrintCdf(rec.points[0].value, EmpiricalCdfPoints(rec.result.hot_fractions, 20),
             "hot_link_frac");
  }
  std::cout << "\n(paper: baseline/heavy stay below ~10% hot links nearly all the time)\n";
  return 0;
}
