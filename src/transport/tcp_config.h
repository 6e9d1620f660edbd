// Transport configuration (Table 1 defaults).

#ifndef SRC_TRANSPORT_TCP_CONFIG_H_
#define SRC_TRANSPORT_TCP_CONFIG_H_

#include <cstdint>

#include "src/sim/time.h"

namespace dibs {

// The two host stacks the paper evaluates: DCTCP (alone and under DIBS) and
// pFabric (§5.8). Plain loss-based TCP is DCTCP on a fabric that never
// marks (ecn_threshold_packets = 0): with no ECE the DCTCP update never
// cuts, and the sender runs the same slow start, congestion avoidance and
// loss recovery.
enum class TransportKind : uint8_t {
  kDctcp,
  kPfabric,
};

// DCTCP's constants. The RTO ceiling bounds binary backoff; the alpha gain
// is the g = 1/16 of Alizadeh et al.; the window cap is far above any BDP
// this simulator builds, so it only keeps cwnd finite.
inline constexpr Time kTcpMaxRto = Time::Seconds(2);
inline constexpr double kDctcpG = 1.0 / 16.0;
inline constexpr uint32_t kTcpMaxCwndSegments = 1u << 16;

struct TcpConfig {
  uint32_t init_cwnd_segments = 10;  // Table 1
  Time min_rto = Time::Millis(10);   // Table 1
  // Dup-ACK fast-retransmit threshold; 0 disables fast retransmit entirely
  // (the DIBS host setting, §4 — reordering from detours would otherwise
  // trigger spurious retransmissions).
  uint32_t dupack_threshold = 3;

  // The paper's DCTCP+DIBS host configuration (§4): reordering from detours
  // must not trigger spurious retransmissions. The paper's primary choice —
  // and ours — is disabling fast retransmit entirely (dupack_threshold = 0);
  // its stated alternative (threshold > 10) measures equivalently in this
  // substrate (bench/ablation_host_params quantifies both, plus the minRTO
  // sensitivity).
  static TcpConfig DibsDefault() {
    TcpConfig c;
    c.dupack_threshold = 0;
    return c;
  }

  // Plain DCTCP baseline (fast retransmit on).
  static TcpConfig DctcpDefault() { return TcpConfig{}; }
};

// pFabric's RTO: §5.8 adjusts minRTO to 350us for 1Gbps, and backoff is
// capped at 40ms.
inline constexpr Time kPfabricRto = Time::Micros(350);
inline constexpr Time kPfabricMaxRto = Time::Millis(40);

struct PfabricConfig {
  uint32_t window_segments = 12;   // ~BDP at 1Gbps with shallow queues
};

}  // namespace dibs

#endif  // SRC_TRANSPORT_TCP_CONFIG_H_
