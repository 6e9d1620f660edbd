// Layer replays for the traced benchmark run: each one drives a single layer
// of the simulator through its public API at the load a real workload put on
// it (queue depth, packet counts and burst shape all come from the traced
// run), so a per-layer number moves when that layer gets cheaper or dearer.

#ifndef PERFBENCH_REPLAYS_H_
#define PERFBENCH_REPLAYS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/device/network.h"
#include "src/exp/run_record.h"
#include "src/topo/topology.h"

namespace perfbench {

// Event core alone: `depth` pending events, each firing event schedules one
// successor, so the queue stays at `depth` for `events` fired events. Delays
// are uniform in [1, 2 * depth * gap_ns] ns, which by Little's law matches a
// workload that fires one event per `gap_ns` of simulated time at that
// depth. Returns host ns per fired event (Schedule + pop + dispatch).
double SimCoreNs(size_t depth, uint64_t events, int64_t gap_ns, uint64_t seed);

// DropTailQueue held at capacity - 1 packets: `ops` Enqueue+Dequeue pairs.
// Returns host ns per pair.
double DropTailNs(size_t capacity, size_t mark_threshold, uint64_t ops);

// PfabricQueue held at capacity - 1 packets with pseudo-random priorities:
// `ops` Enqueue+Dequeue pairs. Returns host ns per pair.
double PfabricNs(size_t capacity, uint64_t ops, uint64_t seed);

struct HopStats {
  double ns_per_hop = 0;   // host ns per switch hop of a delivered packet
  uint64_t packets = 0;    // packets injected
  uint64_t hops = 0;       // switch hops summed over delivered packets
  uint64_t delivered = 0;
  uint64_t detours = 0;
  uint64_t drops = 0;
};

// Fast path: `packets` single packets between host pairs on opposite sides
// of the fabric, 32 at a time, so no queue ever fills.
HopStats FastHop(const dibs::Topology& topology, const dibs::NetworkConfig& config,
                 uint64_t packets);

// Full-queue path: first-RTT incast bursts (`senders` hosts each sending
// `burst_packets` back to back to one host) until `packets` are injected.
// The receiver's downlink overflows, so the switch's detour path
// (port snapshot + policy) runs on most hops.
HopStats DetourHop(const dibs::Topology& topology, const dibs::NetworkConfig& config,
                   int senders, int burst_packets, uint64_t packets);

// RunJournal::Append of each record `rounds` times into a fresh journal at
// `path` (removed afterwards). Returns the median ms per append, fsync
// included.
double JournalAppendMs(const std::string& path, const std::vector<dibs::RunRecord>& records,
                       int rounds);

// EncodeRunRecord + DecodeRunRecord round trips, `rounds` per record.
// Returns host µs per round trip; throws if a record does not round-trip.
double CodecUs(const std::vector<dibs::RunRecord>& records, int rounds);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAYS_H_
