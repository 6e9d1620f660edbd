// Figure 3: sparsity of hotspots across workload types.
//
// The paper reproduces this graph from the Flyways paper's four production
// datasets (IndexSrv, 3Cars, Neon, Cosmos), which are not public. We
// substitute synthetic demand matrices with the same structural character —
// partition/aggregate (IndexSrv-like), map-reduce shuffle (Cosmos-like), and
// HPC neighbor exchange (Neon/3Cars-like) — and measure the same quantity:
// the CDF over time of the fraction of links whose utilization is at least
// half that of the most-loaded link.

#include <iostream>

#include "bench/bench_util.h"
#include "src/workload/background.h"
#include "src/workload/query.h"

using namespace dibs;
using namespace dibs::bench;

namespace {

struct WorkloadResult {
  std::string name;
  std::vector<double> rel_hot_fractions;
};

WorkloadResult RunWorkload(const std::string& name, int mode) {
  ExperimentConfig cfg = DibsConfig();
  cfg.enable_background = false;
  cfg.enable_query = false;
  cfg.duration = BenchDuration(Time::Millis(300));
  cfg.drain = Time::Millis(100);
  cfg.seed = 11;
  cfg.monitor_interval = Time::Millis(2);
  cfg.trace = ApplyTraceEnv(cfg.trace);

  Scenario scenario(cfg);
  Network& net = scenario.network();
  FlowManager& flows = scenario.flows();

  Rng& rng = net.sim().rng();
  const int n = net.num_hosts();

  switch (mode) {
    case 0: {  // partition/aggregate: incast bursts to rotating aggregators
      for (int q = 0; q < 60; ++q) {
        const Time at = Time::Millis(rng.UniformInt(0, cfg.duration.ToMillis() - 1));
        net.sim().ScheduleAt(at, [&net, &flows, &rng, n] {
          const auto picks = rng.SampleWithoutReplacement(n, 21);
          for (int i = 1; i <= 20; ++i) {
            flows.StartFlow(static_cast<HostId>(picks[static_cast<size_t>(i)]),
                            static_cast<HostId>(picks[0]), 20000, TrafficClass::kQuery,
                            nullptr);
          }
        });
      }
      break;
    }
    case 1: {  // map-reduce shuffle: a few racks exchange large blocks
      for (int wave = 0; wave < 6; ++wave) {
        const Time at = Time::Millis(wave * (cfg.duration.ToMillis() / 6));
        net.sim().ScheduleAt(at, [&net, &flows, &rng, n] {
          const auto members = rng.SampleWithoutReplacement(n, 16);
          for (int a : members) {
            for (int b : members) {
              if (a != b && rng.Bernoulli(0.3)) {
                flows.StartFlow(static_cast<HostId>(a), static_cast<HostId>(b), 500000,
                                TrafficClass::kBackground, nullptr);
              }
            }
          }
        });
      }
      break;
    }
    case 2: {  // HPC neighbor exchange: fixed ring of peers, periodic bursts
      for (int wave = 0; wave < 12; ++wave) {
        const Time at = Time::Millis(wave * (cfg.duration.ToMillis() / 12));
        net.sim().ScheduleAt(at, [&flows, n] {
          for (int h = 0; h < n; h += 4) {
            flows.StartFlow(static_cast<HostId>(h), static_cast<HostId>((h + 4) % n), 100000,
                            TrafficClass::kBackground, nullptr);
          }
        });
      }
      break;
    }
    default: {  // mixed: light all-to-all background
      for (int f = 0; f < 300; ++f) {
        const Time at = Time::Millis(rng.UniformInt(0, cfg.duration.ToMillis() - 1));
        net.sim().ScheduleAt(at, [&flows, &rng, n] {
          const auto src = static_cast<HostId>(rng.UniformInt(0, n - 1));
          auto dst = static_cast<HostId>(rng.UniformInt(0, n - 2));
          if (dst >= src) {
            ++dst;
          }
          flows.StartFlow(src, dst, 50000, TrafficClass::kBackground, nullptr);
        });
      }
      break;
    }
  }

  return WorkloadResult{name, scenario.Run().relative_hot_fractions};
}

}  // namespace

int main() {
  PrintFigureBanner("Figure 3", "Sparsity of hotspots in four workload types",
                    "SUBSTITUTION: synthetic demand matrices stand in for the "
                    "(non-public) Flyways datasets; same metric (links >= 50% of max)");
  std::vector<WorkloadResult> results;
  results.push_back(RunWorkload("IndexSrv-like (partition/aggregate)", 0));
  results.push_back(RunWorkload("Cosmos-like (map-reduce shuffle)", 1));
  results.push_back(RunWorkload("Neon-like (HPC neighbor exchange)", 2));
  results.push_back(RunWorkload("3Cars-like (mixed all-to-all)", 3));

  TablePrinter table({"workload", "p50_hot_frac", "p90_hot_frac", "max_hot_frac",
                      "frac_time_below_10pct"});
  table.PrintHeader();
  for (const WorkloadResult& r : results) {
    std::vector<double> v = r.rel_hot_fractions;
    double below10 = 0;
    for (double f : v) {
      below10 += f < 0.10 ? 1 : 0;
    }
    below10 /= v.empty() ? 1 : static_cast<double>(v.size());
    table.PrintRow({r.name, TablePrinter::Num(Percentile(v, 50), 3),
                    TablePrinter::Num(Percentile(v, 90), 3),
                    TablePrinter::Num(Percentile(v, 100), 3), TablePrinter::Num(below10, 2)});
  }
  std::cout << "\n(paper: in every dataset, >=60% of the time fewer than 10% of links are hot)\n";
  return 0;
}
