// Packet model.
//
// Packets are metadata-only value types: the simulator never materializes
// payload bytes, only sizes. A packet carries just enough header state for
// the mechanisms under study — flat L2-style host addressing with a FIB (per
// the paper's data-center setting, §3), ECN codepoints for DCTCP, a TTL that
// bounds DIBS detours (§5.5.3), and a priority field for pFabric (§5.8).
//
// Path-level observability (Figure 1 style analysis) lives in src/trace/:
// packets carry nothing but forwarding state, and per-packet journeys are
// reconstructed from the trace-event stream instead of riding on the packet.

#ifndef SRC_NET_PACKET_H_
#define SRC_NET_PACKET_H_

#include <cstdint>

#include "src/sim/time.h"

namespace dibs {

// Identifies a host (end station). Switches are not addressable endpoints.
using HostId = int32_t;
inline constexpr HostId kInvalidHost = -1;

// Identifies a transport flow. ACKs carry the same flow id as their data.
using FlowId = uint64_t;

// Traffic classes used by the workload generators and the stats layer.
enum class TrafficClass : uint8_t {
  kBackground = 0,  // flows drawn from the empirical size distribution
  kQuery = 1,       // partition/aggregate (incast) responses
  kLongLived = 2,   // fairness-experiment bulk flows
};

// Fields are ordered by size (8-, 4-, 2-, then 1-byte) so the struct packs
// into 72 bytes; queues and the ports' wire slabs hold packets by value.
struct Packet {
  uint64_t uid = 0;  // globally unique per packet instance (retransmits get new uids)
  FlowId flow = 0;

  // pFabric scheduling priority: remaining flow bytes at send time.
  // Lower value = higher priority. Ignored by FIFO queues.
  int64_t priority = 0;

  Time sent_time;  // stamped by the sending host

  // Stamped by Port on queue admission; kDequeue events carry it, giving
  // exact per-hop queueing delay without shadow-tracking queue state.
  Time enqueued_at;

  HostId src = kInvalidHost;
  HostId dst = kInvalidHost;
  uint32_t size_bytes = 0;

  // Transport header (segment granularity).
  uint32_t seq = 0;      // data: segment index within the flow
  uint32_t ack_seq = 0;  // ack: cumulative ack (next expected segment)

  // Number of times any switch detoured this packet (for detour histograms).
  uint16_t detour_count = 0;

  uint8_t ttl = 255;
  TrafficClass traffic_class = TrafficClass::kBackground;

  // ECN codepoints: ect = ECN-capable transport, ce = congestion experienced.
  bool ect = false;
  bool ce = false;

  bool is_ack = false;
  bool ece = false;  // ack: ECN-echo of a received CE mark
  bool fin = false;  // data: last segment of the flow
};
static_assert(sizeof(Packet) == 72, "Packet fields must stay size-ordered");

// Default Ethernet-ish sizes used by the transports.
inline constexpr uint32_t kMtuBytes = 1500;
inline constexpr uint32_t kHeaderBytes = 40;  // simulated TCP/IP header overhead
inline constexpr uint32_t kMaxSegmentBytes = kMtuBytes - kHeaderBytes;
inline constexpr uint32_t kAckBytes = kHeaderBytes;

}  // namespace dibs

#endif  // SRC_NET_PACKET_H_
