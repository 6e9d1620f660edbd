// Flow descriptor and completion record shared by the transports, the
// workload generators, and the stats layer.

#ifndef SRC_TRANSPORT_FLOW_H_
#define SRC_TRANSPORT_FLOW_H_

#include <cstdint>
#include <functional>

#include "src/net/packet.h"
#include "src/sim/time.h"

namespace dibs {

struct FlowSpec {
  FlowId id = 0;
  HostId src = kInvalidHost;
  HostId dst = kInvalidHost;
  uint64_t size_bytes = 0;
  TrafficClass traffic_class = TrafficClass::kBackground;
  Time start_time;
};

struct FlowResult {
  FlowSpec spec;
  Time completion_time;       // receiver got the last byte
  Time fct;                   // completion_time - spec.start_time
  uint32_t retransmits = 0;   // sender-side retransmitted segments
  uint32_t timeouts = 0;      // sender-side RTO firings
  uint64_t marked_acks = 0;   // ACKs carrying ECN-echo
};

using FlowCompletionCallback = std::function<void(const FlowResult&)>;

// Segment count for a flow of `bytes` with our fixed MSS.
inline uint32_t SegmentsForBytes(uint64_t bytes) {
  if (bytes == 0) {
    return 1;  // zero-byte flows still exchange one (empty) segment
  }
  return static_cast<uint32_t>((bytes + kMaxSegmentBytes - 1) / kMaxSegmentBytes);
}

}  // namespace dibs

#endif  // SRC_TRANSPORT_FLOW_H_
