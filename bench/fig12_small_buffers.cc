// Figure 12: very small buffers (1-200 packets/port) under heavy background
// traffic (10ms inter-arrival). Two panels: (a) 99th background FCT,
// (b) 99th QCT (log scale in the paper). Paper result: no collateral damage,
// and DIBS's boost is biggest at small-to-medium buffers.

#include <algorithm>

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Figure 12", "Variable buffer size, heavy background",
                    "bg inter-arrival 10ms, 300 qps, degree 40, response 20KB");
  // The 10ms background makes runs ~10x heavier; shorten the window.
  const Time duration = BenchDuration(Time::Millis(200));
  const std::vector<size_t> buffers = {1, 5, 10, 25, 40, 100, 200};

  SweepSpec spec;
  spec.name = "fig12";
  spec.axes.push_back(SchemeAxis({{"dctcp", Standard(DctcpConfig(), duration)},
                                  {"dibs", Standard(DibsConfig(), duration)}}));
  spec.axes.push_back(
      SweepAxis::Of<size_t>("buffer_pkts", buffers, [](ExperimentConfig& c, size_t b) {
        c.net.switch_buffer_packets = b;
        c.bg_interarrival = Time::Millis(10);
        // ECN marking threshold cannot exceed the buffer itself.
        c.net.ecn_threshold_packets = std::min<size_t>(20, std::max<size_t>(1, b / 2));
      }));

  const std::vector<RunRecord> records = RunBenchSweep(std::move(spec));

  TablePrinter table({"buffer_pkts", "bgfct99_dctcp_ms", "bgfct99_dibs_ms", "qct99_dctcp_ms",
                      "qct99_dibs_ms", "dctcp_done", "dibs_done"});
  table.PrintHeader();
  for (size_t buffer : buffers) {
    const std::string b = std::to_string(buffer);
    const RunRecord& dctcp =
        FindRecord(records, {{"scheme", "dctcp"}, {"buffer_pkts", b}});
    const RunRecord& dibs = FindRecord(records, {{"scheme", "dibs"}, {"buffer_pkts", b}});
    // A 0.00 QCT with 0 completions means no query finished inside the
    // window (the paper's log-scale ~1s points at 1-packet buffers).
    table.PrintRow({TablePrinter::Int(buffer),
                    ResultCell(dctcp, TablePrinter::Num(dctcp.result.bg_fct99_ms)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.bg_fct99_ms)),
                    ResultCell(dctcp, TablePrinter::Num(dctcp.result.qct99_ms)),
                    ResultCell(dibs, TablePrinter::Num(dibs.result.qct99_ms)),
                    ResultCell(dctcp, TablePrinter::Int(dctcp.result.queries_completed)),
                    ResultCell(dibs, TablePrinter::Int(dibs.result.queries_completed))});
  }
  return 0;
}
