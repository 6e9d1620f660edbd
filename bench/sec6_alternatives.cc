// §6 ablation: DIBS vs the alternative buffer-sharing / load-spreading
// mechanisms the paper compares against in Related Work.
//  * Ethernet flow control (hop-by-hop pause): lossless, but backpressure
//    stalls whole links — innocent traffic suffers head-of-line blocking,
//    and the XOFF/XON watermarks need tuning; DIBS has no parameters.
//  * Packet-level ECMP (spraying): spreads load across equal-cost paths, but
//    "cannot provide succor" for incast — the destination's last hop is the
//    bottleneck no matter how packets reach the pod.
// DIBS redirects only the overflow, only where it appears.

#include <iostream>

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Sec 6 (ablation)", "DIBS vs Ethernet flow control vs packet spraying",
                    "defaults: 300 qps, degree 40, response 20KB, bg 120ms");
  const Time duration = BenchDuration(Time::Millis(300));

  struct Scheme {
    const char* name;
    ExperimentConfig cfg;
  };
  std::vector<Scheme> schemes;

  schemes.push_back({"dctcp (drop)", Standard(DctcpConfig(), duration)});

  ExperimentConfig pfc = Standard(DctcpConfig(), duration);
  pfc.net.pfc_enabled = true;
  pfc.net.pfc_xoff_packets = 80;  // of the 100-packet port budget
  pfc.net.pfc_xon_packets = 40;
  schemes.push_back({"dctcp+pfc", pfc});

  ExperimentConfig spray = Standard(DctcpConfig(), duration);
  spray.net.packet_level_ecmp = true;
  spray.tcp.dupack_threshold = 10;  // spraying reorders; same remedy as DIBS
  schemes.push_back({"dctcp+spray", spray});

  schemes.push_back({"dctcp+dibs", Standard(DibsConfig(), duration)});

  ExperimentConfig both = Standard(DibsConfig(), duration);
  both.net.packet_level_ecmp = true;
  schemes.push_back({"dibs+spray", both});

  std::vector<RunSpec> runs;
  for (const Scheme& s : schemes) {
    runs.push_back(BenchRun(s.cfg, {{"scheme", s.name}}));
  }
  const std::vector<RunRecord> records = RunBenchRuns("sec6", std::move(runs));

  TablePrinter table({"scheme", "qct99_ms", "qct50_ms", "bgfct99_ms", "drops", "detours"});
  table.PrintHeader();
  for (const RunRecord& rec : records) {
    const ScenarioResult& r = rec.result;
    table.PrintRow({rec.points[0].value, ResultCell(rec, TablePrinter::Num(r.qct99_ms)),
                    ResultCell(rec, TablePrinter::Num(r.qct.p50)),
                    ResultCell(rec, TablePrinter::Num(r.bg_fct99_ms)),
                    ResultCell(rec, TablePrinter::Int(r.drops)),
                    ResultCell(rec, TablePrinter::Int(r.detours))});
  }
  std::cout << "\n(expected: pfc and dibs are both lossless — pfc can even win outright when\n"
               " the incast is the only hotspot, at the cost of watermark tuning and\n"
               " whole-link pauses; spraying alone still drops at the last hop)\n";
  return 0;
}
