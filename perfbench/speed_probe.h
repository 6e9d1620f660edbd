// Host-speed probe: a fixed, sub-millisecond piece of work that uses nothing
// from src/. On a shared host the speed one CPU gives this process swings by
// tens of percent within a second and by up to 2x for minutes. The benchmark
// times the probe on the same CPU, in the middle of the work it measures
// (every kProbeEveryEvents simulator events, and before every setup sample),
// and divides its timings by the probe's: a change to src/ leaves the probe
// untouched, while host drift moves both alike.

#ifndef PERFBENCH_SPEED_PROBE_H_
#define PERFBENCH_SPEED_PROBE_H_

#include <cstdint>

namespace perfbench {

// Simulator events between two probes inside a timed Scenario::Run: about a
// tenth of a host second, so a probe costs about 1% of the run.
inline constexpr uint64_t kProbeEveryEvents = 1 << 17;

// The probe time that timings are scaled to: a timing t measured next to a
// probe time p is reported as t * kProbeNominalS / p, the seconds it would
// have taken on a CPU that runs the probe in kProbeNominalS. 0.5 ms is about
// the probe's time on an unloaded 4-vCPU Xeon host.
inline constexpr double kProbeNominalS = 0.0005;

// Runs the probe once and returns its host seconds: an event-queue loop in
// the shape of the simulator's own (a binary heap of 1024 timestamps, one
// small allocation per event, random reads and writes into a 256 KB table).
double SpeedProbeSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_SPEED_PROBE_H_
