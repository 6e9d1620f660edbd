// Transport configuration (Table 1 defaults).

#ifndef SRC_TRANSPORT_TCP_CONFIG_H_
#define SRC_TRANSPORT_TCP_CONFIG_H_

#include <cstdint>

#include "src/sim/time.h"

namespace dibs {

enum class CongestionControl : uint8_t {
  kNewReno = 0,  // loss-based halving; ECN-reacting if ecn_enabled
  kDctcp = 1,    // ECN-fraction proportional backoff (Alizadeh et al.)
};

enum class TransportKind : uint8_t {
  kTcp = 0,      // NewReno-style
  kDctcp = 1,
  kPfabric = 2,
};

struct TcpConfig {
  uint32_t init_cwnd_segments = 10;  // Table 1
  Time min_rto = Time::Millis(10);   // Table 1
  Time max_rto = Time::Seconds(2);
  // Dup-ACK fast-retransmit threshold; 0 disables fast retransmit entirely
  // (the DIBS host setting, §4 — reordering from detours would otherwise
  // trigger spurious retransmissions).
  uint32_t dupack_threshold = 3;
  bool ecn_enabled = true;           // set ECT on data, react to ECE
  CongestionControl cc = CongestionControl::kDctcp;
  double dctcp_g = 1.0 / 16.0;       // alpha EWMA gain
  uint32_t max_cwnd_segments = 1u << 16;

  // The paper's DCTCP+DIBS host configuration (§4): reordering from detours
  // must not trigger spurious retransmissions. The paper's primary choice —
  // and ours — is disabling fast retransmit entirely (dupack_threshold = 0);
  // its stated alternative (threshold > 10) measures equivalently in this
  // substrate (bench/ablation_host_params quantifies both, plus the minRTO
  // sensitivity).
  static TcpConfig DibsDefault() {
    TcpConfig c;
    c.cc = CongestionControl::kDctcp;
    c.dupack_threshold = 0;
    return c;
  }

  // Plain DCTCP baseline (fast retransmit on).
  static TcpConfig DctcpDefault() { return TcpConfig{}; }
};

struct PfabricConfig {
  uint32_t window_segments = 12;   // ~BDP at 1Gbps with shallow queues
  Time rto = Time::Micros(350);    // §5.8: minRTO adjusted to 350us for 1Gbps
  Time max_rto = Time::Millis(40);
};

}  // namespace dibs

#endif  // SRC_TRANSPORT_TCP_CONFIG_H_
