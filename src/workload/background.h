// Background traffic generator (§5.3): flows with sizes drawn from the
// production distribution arrive as a Poisson process between uniformly
// random host pairs. Intensity is controlled by the mean inter-arrival time
// (Table 2: 10ms–120ms network-wide).

#ifndef SRC_WORKLOAD_BACKGROUND_H_
#define SRC_WORKLOAD_BACKGROUND_H_

#include <cstdint>

#include "src/sim/simulator.h"
#include "src/transport/flow_manager.h"
#include "src/workload/distributions.h"

namespace dibs {

class Network;

class BackgroundWorkload {
 public:
  struct Options {
    // Mean flow inter-arrival per host (Table 2 default 120ms): each host
    // originates its own Poisson flow process, as in the DCTCP-paper
    // workload. Implemented as one superposed network-wide Poisson process
    // with rate num_hosts/mean (statistically identical, cheaper).
    Time mean_interarrival = Time::Millis(120);
    bool per_host = true;          // false: mean applies network-wide
    Time stop_time = Time::Max();  // no new flows after this
    uint64_t max_flows = UINT64_MAX;
    // Workload randomness is drawn from a dedicated stream (not the
    // simulator's), so two schemes compared under the same seed see
    // identical flow arrivals regardless of how much randomness the
    // forwarding path (e.g. random detouring) consumes.
    uint64_t seed = 0x6261636b;  // "back"
  };

  // `on_complete` receives every finished background flow (for FCT stats).
  BackgroundWorkload(Network* network, FlowManager* flows, Options options,
                     EmpiricalCdf sizes, FlowCompletionCallback on_complete);

  // Schedules the first arrival; subsequent arrivals self-schedule.
  void Start();

  uint64_t flows_launched() const { return flows_launched_; }

 private:
  void LaunchOne();
  void ScheduleNext();
  void OnArrival();

  Network* network_;
  FlowManager* flows_;
  Options options_;
  EmpiricalCdf sizes_;
  FlowCompletionCallback on_complete_;
  Rng rng_;
  uint64_t flows_launched_ = 0;
};

}  // namespace dibs

#endif  // SRC_WORKLOAD_BACKGROUND_H_
