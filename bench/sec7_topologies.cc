// §7 ablation: detouring policy x topology.
// The paper argues random detouring suffices on a fat-tree (ECMP already
// balances load) but topologies with unequal path lengths — JellyFish,
// leaf-spine with few spines, and the degenerate linear chain — should favor
// load-aware detouring. This bench runs the same incast-heavy workload over
// each topology and policy.

#include <iostream>

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Sec 7 (ablation)", "Detour policy x topology",
                    "scaled incast workload per topology; DCTCP hosts");
  const Time duration = BenchDuration(Time::Millis(250));

  struct TopoPoint {
    const char* name;
    TopologyKind kind;
    int degree;  // scaled to the host count
    double qps;
  };
  const TopoPoint topologies[] = {
      {"fat-tree-k8", TopologyKind::kFatTree, 40, 300},
      {"leaf-spine", TopologyKind::kLeafSpine, 12, 300},   // 32 hosts
      {"jellyfish", TopologyKind::kJellyFish, 12, 300},    // 40 hosts
      {"linear", TopologyKind::kLinear, 12, 1500},         // 16 hosts, worst case
  };

  std::vector<RunSpec> runs;
  for (const TopoPoint& t : topologies) {
    for (const char* policy : {"none", "random", "load-aware"}) {
      ExperimentConfig cfg = Standard(DibsConfig(), duration);
      cfg.topology = t.kind;
      cfg.net.detour_policy = policy;
      cfg.incast_degree = t.degree;
      cfg.qps = t.qps;
      cfg.enable_background = false;  // isolate the incast response
      runs.push_back(BenchRun(std::move(cfg), {{"topology", t.name}, {"policy", policy}}));
    }
  }
  const std::vector<RunRecord> records = RunBenchRuns("sec7", std::move(runs));

  TablePrinter table({"topology", "policy", "qct99_ms", "qct50_ms", "drops", "detours"});
  table.PrintHeader();
  for (const RunRecord& rec : records) {
    const ScenarioResult& r = rec.result;
    table.PrintRow({rec.points[0].value, rec.points[1].value,
                    ResultCell(rec, TablePrinter::Num(r.qct99_ms)),
                    ResultCell(rec, TablePrinter::Num(r.qct.p50)),
                    ResultCell(rec, TablePrinter::Int(r.drops)),
                    ResultCell(rec, TablePrinter::Int(r.detours))});
  }
  std::cout << "\n(paper §7: random ~ load-aware on fat-tree; detouring still functions —\n"
               " bouncing backwards — even on the linear chain)\n";
  return 0;
}
