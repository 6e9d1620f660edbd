// Network: instantiates hosts, switches, ports, and routing state from a
// Topology, and provides the shared services the forwarding path needs
// (simulator access, FIB, detour policy, packet uids, instrumentation).

#ifndef SRC_DEVICE_NETWORK_H_
#define SRC_DEVICE_NETWORK_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/detour_policy.h"
#include "src/device/node.h"
#include "src/guard/guard_config.h"
#include "src/guard/guard_fabric.h"
#include "src/net/drop_reason.h"
#include "src/sim/simulator.h"
#include "src/topo/routing.h"
#include "src/topo/topology.h"
#include "src/trace/trace_sink.h"

namespace dibs {

class HostNode;
class InvariantChecker;
class Port;
class Queue;
class SharedBufferPool;
class SwitchNode;

struct NetworkConfig {
  // Switch queues (Table 1 / §5.3 defaults).
  size_t switch_buffer_packets = 100;  // per output port; 0 = unbounded
  size_t ecn_threshold_packets = 20;   // DCTCP marking threshold K; 0 disables

  // pFabric mode replaces drop-tail queues with 24-packet priority queues.
  bool pfabric_queues = false;
  size_t pfabric_buffer_packets = 24;

  // Shared-memory DBA switches (§5.5.2). When enabled, per-port statics are
  // replaced by a dynamic threshold over one shared pool per switch.
  bool use_shared_buffer = false;
  size_t shared_buffer_packets = 1133;  // ~1.7MB of 1500B slots (Arista 7050QX)
  double shared_buffer_alpha = 1.0;

  // DIBS configuration.
  // none|random|load-aware; the Network parses it once (DetourPolicyFromName)
  // and aborts on any other name.
  std::string detour_policy = "none";
  // TTL every host stamps on the data and ACKs it sends; it bounds a
  // packet's detours (§5.5.3 sweeps it down to 12).
  uint8_t initial_ttl = 255;

  // Hop-by-hop Ethernet flow control (§6 comparison): when ANY output queue
  // of a switch reaches the XOFF watermark, the switch pauses every
  // neighbor's transmitter toward it (802.3x-style whole-link pause); it
  // resumes them once EVERY queue has drained to the XON watermark. XOFF
  // must sit far enough below the per-port capacity that packets already in
  // flight (one serializing + one propagating per input) still fit — this is
  // exactly the threshold tuning the paper says makes pause-based flow
  // control brittle, and which DIBS avoids having.
  bool pfc_enabled = false;
  size_t pfc_xoff_packets = 80;  // per output queue; default buffer is 100
  size_t pfc_xon_packets = 40;

  // Overload guard (src/guard): per-switch detour-storm circuit breaker and
  // adaptive detour-TTL clamp. Disabled by default; when off the forwarding
  // path pays one null-pointer check per packet.
  GuardConfig guard;

  // Packet-level ECMP (§6): spray each packet uniformly over the equal-cost
  // next hops instead of hashing per flow. Proposed in the literature but not
  // widely used — the paper argues even perfect load-aware spraying cannot
  // help incast (the last hop is the bottleneck); the ablation bench
  // demonstrates it.
  bool packet_level_ecmp = false;
};

class Network {
 public:
  Network(Simulator* sim, Topology topology, NetworkConfig config);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Const overloads exist so read-only code — trace sinks in particular,
  // which must never mutate the run (the chaos trace oracle and
  // GoldenBehaviour.InstrumentsDoNotPerturb compare runs with them on and
  // off) — can go through `const Network&` end to end.
  Simulator& sim() { return *sim_; }
  const Simulator& sim() const { return *sim_; }
  const Topology& topology() const { return topo_; }
  const Fib& fib() const { return fib_; }
  const NetworkConfig& config() const { return config_; }
  DetourPolicy detour_policy() const { return policy_; }

  HostNode& host(HostId h);
  const HostNode& host(HostId h) const;
  SwitchNode& switch_at(int node_id);  // node_id must be a switch node
  const SwitchNode& switch_at(int node_id) const;
  bool IsSwitchNode(int node_id) const { return IsSwitchKind(topo_.node(node_id).kind); }

  int num_hosts() const { return topo_.num_hosts(); }

  uint64_t NextPacketUid() { return next_uid_++; }

  // ---- Instrumentation (src/trace) ----
  //
  // Every hook emits one TraceEvent to the sinks subscribed to its kind, in
  // subscription order; the DIBS_VALIDATE ledger, installed at
  // construction, comes first. A kind with no subscriber costs one branch
  // and its event is never built. Subscribe before the run starts; sinks
  // are not owned. OnEvent never draws simulator RNG or schedules events, so
  // a run is bit-identical whatever is subscribed.
  void Subscribe(TraceSink* sink, TraceKindSet kinds = kAllTraceKinds);
  bool Wants(TraceEventType type) const {
    return !subscribers_[static_cast<size_t>(type)].empty();
  }
  void Dispatch(const TraceEvent& e) {
    for (TraceSink* sink : subscribers_[static_cast<size_t>(e.type)]) {
      sink->OnEvent(e);
    }
  }

  // Forwarding-path hooks. Port emits its own enqueue, wire and pause events.
  void NotifyHostSend(HostId host, const Packet& p);
  void NotifyDetour(int node, uint16_t port, const Packet& p);
  void NotifyDrop(int node, const Packet& p, DropReason reason);
  void NotifyEviction(int node, const Packet& p);  // pFabric; not a DropReason
  void NotifyHostDeliver(HostId host, const Packet& p);
  void NotifyDequeue(int node, uint16_t port, const Packet& p, size_t queue_depth);
  void NotifyGuardTransition(int node, GuardState from, GuardState to);
  // Transport-layer events (RTO fired / segment retransmitted), attributed
  // to the sending host's node.
  void NotifyTransportEvent(TraceEventType type, HostId host, FlowId flow, uint32_t seq);

  // ---- Overload guard (src/guard) ----
  //
  // Constructed when config.guard.enabled; the fabric reports breaker
  // transitions back through NotifyGuardTransition. Callers running outside
  // a Scenario must Start() it themselves.
  GuardFabric* guard() { return guard_.get(); }
  const GuardFabric* guard() const { return guard_.get(); }

  // ---- Fault model (driven by fault::FaultInjector or tests) ----
  //
  // A link is EFFECTIVELY up iff it is administratively up AND both endpoint
  // switches are operational. Taking a link down (directly or via a crash)
  // drains both directions' queues as DropReason::kFaultLinkDown, blackholes
  // future enqueues, and masks the link's ports out of the live FIB so ECMP
  // re-picks among survivors; bringing it back restores the FIB entries and
  // kicks the transmitters. All transitions are idempotent.

  // Administrative link state (link index from the Topology).
  void SetLinkAdminState(int link, bool up);

  // Crash / restart a switch: a crashed switch drops everything it receives
  // and every adjacent link goes effectively down. Restart restores adjacent
  // links whose other conditions (admin state, peer liveness) allow it.
  void SetSwitchOperational(int node_id, bool up);

  // Degraded link: both directions lose each packet with `loss_probability`
  // (DropReason::kFaultLossy) and add up to `extra_jitter` of RNG-drawn
  // propagation delay. (0, 0) restores the link to healthy.
  void SetLinkDegraded(int link, double loss_probability, Time extra_jitter);

  bool LinkUp(int link) const;  // effective state
  bool SwitchOperational(int node_id) const;

  // DIBS_VALIDATE: the packet-conservation ledger, auto-installed when
  // validation is enabled at construction time; nullptr otherwise.
  InvariantChecker* invariant_checker() { return invariant_checker_.get(); }

  // Network-wide queue occupancy: every packet buffered in any host NIC or
  // switch output queue right now (the "buffered" term of the conservation
  // balance; packets on the wire are counted by the checker itself).
  uint64_t TotalBufferedPackets() const;

  // Aggregate counters. Drops are counted per reason as NotifyDrop sees
  // them, the one drop table every report reads; pFabric evictions are not
  // a DropReason and stay out of it.
  uint64_t drops(DropReason reason) const {
    return drops_by_reason_[static_cast<size_t>(reason)];
  }
  // Indexed by DropReason (size kNumDropReasons).
  const std::array<uint64_t, kNumDropReasons>& drops_by_reason() const {
    return drops_by_reason_;
  }
  uint64_t total_drops() const;
  uint64_t total_detours() const { return total_detours_; }
  uint64_t total_delivered() const { return total_delivered_; }

  // All switch node ids, in topology order (for FabricMonitor).
  const std::vector<int>& switch_ids() const { return switch_ids_; }

 private:
  std::unique_ptr<Queue> MakeSwitchQueue(SharedBufferPool* pool) const;

  // The device-layer Port for `node`'s `port_index` (host NIC or switch port).
  Port& PortAt(int node_id, uint16_t port_index);

  // Port index of `link` as seen from `node` (inverse of Topology::ports).
  uint16_t PortIndexOf(int node_id, int link) const;

  // Recomputes a link's effective state from admin + endpoint liveness and
  // pushes it into both Ports and the live FIB.
  void ApplyLinkEffective(int link);

  Simulator* sim_;
  Topology topo_;
  NetworkConfig config_;
  Fib fib_;
  std::vector<bool> link_admin_up_;      // indexed by link id
  std::vector<bool> node_up_;            // indexed by node id; false = crashed switch
  std::vector<bool> link_effective_up_;  // last applied effective state, for trace edges
  DetourPolicy policy_ = DetourPolicy::kNone;
  std::unique_ptr<GuardFabric> guard_;

  std::vector<std::unique_ptr<Node>> nodes_;                 // indexed by topo node id
  std::vector<std::unique_ptr<SharedBufferPool>> pools_;     // per switch when DBA on
  std::vector<int> switch_ids_;
  std::array<std::vector<TraceSink*>, kNumTraceEventTypes> subscribers_;  // by kind
  std::unique_ptr<InvariantChecker> invariant_checker_;  // DIBS_VALIDATE only

  uint64_t next_uid_ = 1;
  std::array<uint64_t, kNumDropReasons> drops_by_reason_{};
  uint64_t total_detours_ = 0;
  uint64_t total_delivered_ = 0;
};

}  // namespace dibs

#endif  // SRC_DEVICE_NETWORK_H_
