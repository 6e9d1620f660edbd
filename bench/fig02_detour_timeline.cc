// Figure 2: how switches in the congested pod respond to one heavy incast
// over time. (a) per-switch detour events over time; (b) buffer occupancy of
// the destination pod's switches at three instants t1 < t2 < t3.

#include <algorithm>
#include <iostream>
#include <optional>
#include <string>

#include "bench/bench_util.h"
#include "src/device/switch_node.h"
#include "src/stats/detour_timeline.h"
#include "src/stats/fabric_monitor.h"
#include "src/topo/builders.h"
#include "src/transport/flow_manager.h"
#include "src/workload/query.h"

using namespace dibs;
using namespace dibs::bench;

constexpr Time kDetourBucket = Time::Micros(100);

int main() {
  PrintFigureBanner("Figure 2", "Detours and buffer occupancy during one large incast",
                    "K=8 fat-tree, one 100-way incast of 20KB responses, DIBS");

  NetworkConfig net_cfg;
  net_cfg.detour_policy = "random";
  Simulator sim(4);
  Network net(&sim, BuildPaperFatTree(), net_cfg);
  DetourTimeline detours(kDetourBucket);
  net.Subscribe(&detours, DetourTimeline::kKinds);
  FlowManager flows(&net, TransportKind::kDctcp, TcpConfig::DibsDefault());

  // One burst, launched immediately.
  QueryWorkload::Options q;
  q.qps = 1e6;  // first Poisson gap ~1us: the query fires at t~0
  q.degree = 100;
  q.response_bytes = 20000;
  q.max_queries = 1;
  std::optional<QueryResult> burst;
  QueryWorkload queries(&net, &flows, q, [&burst](const QueryResult& r) { burst = r; });
  queries.Start();

  // Snapshot every edge/aggregation switch for the first 30 ms; report the
  // busy ones.
  std::vector<int> snapshot_switches;
  for (int sw : net.switch_ids()) {
    if (net.topology().node(sw).kind != NodeKind::kCore) {
      snapshot_switches.push_back(sw);
    }
  }
  FabricMonitor monitor(&net, Time::Micros(250), snapshot_switches);

  sim.RunUntil(Time::Millis(30));
  monitor.Finish();
  sim.RunUntil(Time::Millis(60));

  // (a) Detour timeline per switch.
  std::cout << "\n-- Figure 2a: detours per switch over time (100us buckets) --\n";
  TablePrinter timeline({"switch", "kind", "t_ms", "detours"});
  timeline.PrintHeader();
  const Topology& topo = net.topology();
  Time last_detour_end = Time::Zero();
  for (int sw : detours.DetouringSwitches()) {
    const char* kind = topo.node(sw).kind == NodeKind::kEdge
                           ? "edge"
                           : (topo.node(sw).kind == NodeKind::kAggregation ? "aggr" : "core");
    for (const auto& [t, count] : detours.TimelineFor(sw)) {
      timeline.PrintRow({topo.node(sw).name, kind, TablePrinter::Num(t.ToMillis(), 2),
                         TablePrinter::Int(count)});
      last_detour_end = std::max(last_detour_end, t + kDetourBucket);
    }
  }

  // (b) Buffer occupancy at three instants around the detour peak.
  std::cout << "\n-- Figure 2b: buffer occupancy snapshots (ports with >0 pkts) --\n";
  const auto& snaps = monitor.snapshots();
  if (!snaps.empty()) {
    size_t t2_idx = 0;
    size_t best_total = 0;
    for (size_t i = 0; i < snaps.size(); ++i) {
      size_t total = 0;
      for (const auto& per_port : snaps[i].queue_lengths) {
        for (size_t qlen : per_port) {
          total += qlen;
        }
      }
      if (total > best_total) {
        best_total = total;
        t2_idx = i;
      }
    }
    const size_t t1_idx = t2_idx / 2;
    const size_t t3_idx = std::min(snaps.size() - 1, t2_idx + std::max<size_t>(t2_idx, 4));
    TablePrinter occ({"t", "time_ms", "switch", "port_queue_lengths"}, {0, 0, 0, 30});
    occ.PrintHeader();
    int label = 1;
    for (size_t idx : {t1_idx, t2_idx, t3_idx}) {
      const auto& snap = snaps[idx];
      for (size_t s = 0; s < snapshot_switches.size(); ++s) {
        size_t total = 0;
        std::string lens;
        for (size_t qlen : snap.queue_lengths[s]) {
          total += qlen;
          lens += std::to_string(qlen) + " ";
        }
        if (total == 0) {
          continue;
        }
        occ.PrintRow({"t" + std::to_string(label), TablePrinter::Num(snap.at.ToMillis(), 2),
                      topo.node(snapshot_switches[s]).name, lens});
      }
      ++label;
    }
  }

  std::cout << "\ntotal detours: " << net.total_detours() << ", drops: " << net.total_drops()
            << ", "
            << (burst ? "query completed " + TablePrinter::Num(burst->qct.ToMillis(), 2) +
                            " ms after issue"
                      : std::string("query still open at 60 ms"))
            << ", last detour in the bucket ending at "
            << TablePrinter::Num(last_detour_end.ToMillis(), 2)
            << " ms (paper: absorbed within ~10ms, no losses)\n";
  return 0;
}
