// §5.6: fairness among long-lived flows under DIBS.
// 128 hosts split into 64 node-disjoint pairs; N flows per pair in both
// directions (N=16 -> 4096 flows). Paper result: Jain's fairness index stays
// above 0.9 for all N — DIBS does not starve anyone.

#include <iostream>

#include "bench/bench_util.h"
#include "src/workload/long_lived.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Sec 5.6", "Jain fairness of long-lived flows under DIBS",
                    "64 disjoint host pairs, N flows per direction, K=8 fat-tree");
  const Time window = BenchDuration(Time::Millis(80));
  TablePrinter table({"N", "total_flows", "jain_index", "mean_goodput_mbps"});
  table.PrintHeader();
  for (int n : {1, 2, 4, 8, 16}) {
    ExperimentConfig cfg = DibsConfig();
    cfg.enable_background = false;
    cfg.enable_query = false;
    cfg.duration = window;
    cfg.drain = Time::Zero();
    cfg.seed = 2;
    cfg.trace = ApplyTraceEnv(cfg.trace);
    Scenario scenario(cfg);

    LongLivedWorkload::Options opts;
    opts.flows_per_pair = n;
    LongLivedWorkload ll(&scenario.network(), &scenario.flows(), opts);
    ll.Start();
    scenario.sim().RunUntil(window);

    const auto goodputs = ll.MeasureGoodputBps();
    table.PrintRow({TablePrinter::Int(static_cast<uint64_t>(n)),
                    TablePrinter::Int(ll.num_flows()),
                    TablePrinter::Num(ll.FairnessIndex(), 4),
                    TablePrinter::Num(Mean(goodputs) / 1e6, 1)});
  }
  std::cout << "\n(paper: index > 0.9 for every N)\n";
  return 0;
}
