// Figure 16: DCTCP+DIBS vs pFabric across query rates (300-2000 qps).
// Paper result: (a) pFabric's strict shortest-remaining-first scheduling
// hurts background flows as query load grows, while DIBS stays gentle;
// (b) at high query rates DIBS matches or slightly beats pFabric's 99th QCT
// because pFabric's shallow 24-packet queues drop and retransmit heavily.

#include "bench/bench_util.h"

using namespace dibs;
using namespace dibs::bench;

int main() {
  PrintFigureBanner("Figure 16", "DIBS vs pFabric",
                    "bg inter-arrival 120ms, incast degree 40, response 20KB");
  // Figure 16a's damage shows up on LARGE background flows (pFabric's SRPT
  // scheduling starves them), so report both the short-flow FCT and the
  // all-background-flow FCT tails.
  const std::vector<int> rates = {300, 500, 1000, 1500, 2000};
  std::vector<RunSpec> runs;
  for (int qps : rates) {
    const Time duration = BenchDuration(qps <= 500 ? Time::Millis(400) : Time::Millis(200));
    ExperimentConfig pfabric = Standard(PfabricExperimentConfig(), duration);
    ExperimentConfig dibs = Standard(DibsConfig(), duration);
    pfabric.qps = qps;
    dibs.qps = qps;
    const std::string q = std::to_string(qps);
    runs.push_back(BenchRun(std::move(pfabric), {{"qps", q}, {"scheme", "pfabric"}}));
    runs.push_back(BenchRun(std::move(dibs), {{"qps", q}, {"scheme", "dibs"}}));
  }
  const std::vector<RunRecord> records = RunBenchRuns("fig16", std::move(runs));

  TablePrinter table({"qps", "qct99_pfabric_ms", "qct99_dibs_ms", "bgfct99short_pf_ms",
                      "bgfct99short_dibs_ms", "bgfct99all_pf_ms", "bgfct99all_dibs_ms"});
  table.PrintHeader();
  for (size_t i = 0; i < rates.size(); ++i) {
    const RunRecord& pf = records[2 * i];
    const RunRecord& db = records[2 * i + 1];
    table.PrintRow({TablePrinter::Int(static_cast<uint64_t>(rates[i])),
                    ResultCell(pf, TablePrinter::Num(pf.result.qct99_ms)),
                    ResultCell(db, TablePrinter::Num(db.result.qct99_ms)),
                    ResultCell(pf, TablePrinter::Num(pf.result.bg_fct99_ms)),
                    ResultCell(db, TablePrinter::Num(db.result.bg_fct99_ms)),
                    ResultCell(pf, TablePrinter::Num(pf.result.bg_fct99_all_ms)),
                    ResultCell(db, TablePrinter::Num(db.result.bg_fct99_all_ms))});
  }
  return 0;
}
