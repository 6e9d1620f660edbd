#include "src/device/network.h"

#include <optional>
#include <utility>

#include "src/device/host_node.h"
#include "src/device/invariant_checker.h"
#include "src/device/switch_node.h"
#include "src/net/droptail_queue.h"
#include "src/net/pfabric_queue.h"
#include "src/net/shared_buffer.h"
#include "src/util/logging.h"
#include "src/util/validation.h"

namespace dibs {

Network::Network(Simulator* sim, Topology topology, NetworkConfig config)
    : sim_(sim),
      topo_(std::move(topology)),
      config_(std::move(config)),
      fib_(Fib::Compute(topo_)),
      link_admin_up_(static_cast<size_t>(topo_.num_links()), true),
      node_up_(static_cast<size_t>(topo_.num_nodes()), true),
      link_effective_up_(static_cast<size_t>(topo_.num_links()), true) {
  const std::optional<DetourPolicy> policy = DetourPolicyFromName(config_.detour_policy);
  DIBS_CHECK(policy.has_value()) << "unknown detour policy: " << config_.detour_policy;
  policy_ = *policy;
  DIBS_CHECK(!(config_.pfabric_queues && config_.use_shared_buffer))
      << "pFabric and shared-buffer modes are mutually exclusive";

  // DIBS_VALIDATE: every network carries its own conservation ledger so the
  // invariants hold per-simulation even when sweeps run many in parallel.
  if (validate::Enabled()) {
    invariant_checker_ = std::make_unique<InvariantChecker>();
    Subscribe(invariant_checker_.get(), InvariantChecker::kKinds);
  }

  // Create nodes.
  nodes_.resize(static_cast<size_t>(topo_.num_nodes()));
  for (int n = 0; n < topo_.num_nodes(); ++n) {
    const TopoNode& tn = topo_.node(n);
    if (tn.kind == NodeKind::kHost) {
      nodes_[static_cast<size_t>(n)] = std::make_unique<HostNode>(this, n, tn.host_id);
    } else {
      nodes_[static_cast<size_t>(n)] = std::make_unique<SwitchNode>(this, n);
      switch_ids_.push_back(n);
    }
  }

  // Per-switch shared pools (DBA mode).
  pools_.resize(static_cast<size_t>(topo_.num_nodes()));
  if (config_.use_shared_buffer) {
    for (int sw : switch_ids_) {
      pools_[static_cast<size_t>(sw)] = std::make_unique<SharedBufferPool>(
          config_.shared_buffer_packets, config_.shared_buffer_alpha);
    }
  }

  // Create ports: one per incident link per node, in topology port order so
  // FIB port indices line up.
  for (int n = 0; n < topo_.num_nodes(); ++n) {
    const TopoNode& tn = topo_.node(n);
    const auto& port_refs = topo_.ports(n);
    for (uint16_t i = 0; i < port_refs.size(); ++i) {
      const TopoLink& link = topo_.link(port_refs[i].link);
      std::unique_ptr<Queue> queue;
      if (tn.kind == NodeKind::kHost) {
        queue = std::make_unique<DropTailQueue>(/*capacity=*/0, /*mark=*/0);
      } else {
        queue = MakeSwitchQueue(pools_[static_cast<size_t>(n)].get());
        // pFabric destroys packets inside Enqueue (eviction); the ledger must
        // hear about those terminal states or conservation would not balance,
        // and the trace must record them or journeys would dangle. They are
        // kDrop events with the eviction reason, outside total_drops().
        if (config_.pfabric_queues) {
          static_cast<PfabricQueue*>(queue.get())->SetEvictionHandler(
              [this, n](Packet&& dead) { NotifyEviction(n, dead); });
        }
      }
      auto port = std::make_unique<Port>(this, nodes_[static_cast<size_t>(n)].get(), i,
                                         std::move(queue), link.rate_bps, link.delay);
      if (tn.kind == NodeKind::kHost) {
        static_cast<HostNode*>(nodes_[static_cast<size_t>(n)].get())->SetPort(std::move(port));
        DIBS_CHECK_EQ(port_refs.size(), 1u) << "hosts must have exactly one NIC";
      } else {
        static_cast<SwitchNode*>(nodes_[static_cast<size_t>(n)].get())
            ->AddPort(std::move(port));
      }
    }
  }

  // Overload guard: one DetourGuard per switch, ticked by a single fabric
  // event; transitions fan back out through NotifyGuardTransition.
  if (config_.guard.enabled) {
    guard_ = std::make_unique<GuardFabric>(sim_, config_.guard.adaptive_ttl, switch_ids_);
    guard_->set_transition_callback([this](int node, GuardState from, GuardState to) {
      NotifyGuardTransition(node, from, to);
    });
  }

  // Wire peers.
  for (int n = 0; n < topo_.num_nodes(); ++n) {
    const TopoNode& tn = topo_.node(n);
    const auto& port_refs = topo_.ports(n);
    for (uint16_t i = 0; i < port_refs.size(); ++i) {
      const int peer_node = port_refs[i].neighbor;
      // Find the peer's port index for this link.
      const auto& peer_refs = topo_.ports(peer_node);
      uint16_t peer_port = UINT16_MAX;
      for (uint16_t j = 0; j < peer_refs.size(); ++j) {
        if (peer_refs[j].link == port_refs[i].link) {
          peer_port = j;
          break;
        }
      }
      DIBS_CHECK_NE(peer_port, UINT16_MAX);
      Port* port = nullptr;
      if (tn.kind == NodeKind::kHost) {
        port = &static_cast<HostNode*>(nodes_[static_cast<size_t>(n)].get())->nic();
      } else {
        port = &static_cast<SwitchNode*>(nodes_[static_cast<size_t>(n)].get())->port(i);
      }
      port->Connect(nodes_[static_cast<size_t>(peer_node)].get(), peer_port,
                    IsSwitchKind(topo_.node(peer_node).kind));
    }
  }
}

Network::~Network() = default;

std::unique_ptr<Queue> Network::MakeSwitchQueue(SharedBufferPool* pool) const {
  if (config_.pfabric_queues) {
    return std::make_unique<PfabricQueue>(config_.pfabric_buffer_packets);
  }
  if (config_.use_shared_buffer) {
    return std::make_unique<DropTailQueue>(/*capacity=*/0, config_.ecn_threshold_packets, pool);
  }
  return std::make_unique<DropTailQueue>(config_.switch_buffer_packets,
                                         config_.ecn_threshold_packets);
}

HostNode& Network::host(HostId h) {
  const int node_id = topo_.host_node(h);
  return *static_cast<HostNode*>(nodes_[static_cast<size_t>(node_id)].get());
}

const HostNode& Network::host(HostId h) const {
  const int node_id = topo_.host_node(h);
  return *static_cast<const HostNode*>(nodes_[static_cast<size_t>(node_id)].get());
}

SwitchNode& Network::switch_at(int node_id) {
  DIBS_DCHECK(IsSwitchNode(node_id));
  return *static_cast<SwitchNode*>(nodes_[static_cast<size_t>(node_id)].get());
}

const SwitchNode& Network::switch_at(int node_id) const {
  DIBS_DCHECK(IsSwitchNode(node_id));
  return *static_cast<const SwitchNode*>(nodes_[static_cast<size_t>(node_id)].get());
}

void Network::Subscribe(TraceSink* sink, TraceKindSet kinds) {
  for (size_t t = 0; t < kNumTraceEventTypes; ++t) {
    if ((kinds >> t) & 1) {
      subscribers_[t].push_back(sink);
    }
  }
}

void Network::NotifyHostSend(HostId host, const Packet& p) {
  if (Wants(TraceEventType::kHostSend)) {
    Dispatch(MakeTracePacketEvent(TraceEventType::kHostSend, sim_->Now(),
                                  topo_.host_node(host), /*port=*/-1, p));
  }
}

void Network::NotifyDequeue(int node, uint16_t port, const Packet& p, size_t queue_depth) {
  if (Wants(TraceEventType::kDequeue)) {
    TraceEvent ev = MakeTracePacketEvent(TraceEventType::kDequeue, sim_->Now(), node, port, p);
    ev.queue_depth = static_cast<int32_t>(queue_depth);
    Dispatch(ev);
  }
}

void Network::NotifyGuardTransition(int node, GuardState from, GuardState to) {
  if (Wants(TraceEventType::kGuardTransition)) {
    TraceEvent ev;
    ev.at = sim_->Now();
    ev.type = TraceEventType::kGuardTransition;
    ev.node = node;
    // Not a packet event: from/to states ride the numeric port/queue_depth
    // fields (same convention as kLinkUp carrying the link id in `port`).
    ev.port = static_cast<int32_t>(from);
    ev.queue_depth = static_cast<int32_t>(to);
    Dispatch(ev);
  }
}

void Network::NotifyTransportEvent(TraceEventType type, HostId host, FlowId flow, uint32_t seq) {
  if (!Wants(type)) {
    return;
  }
  TraceEvent ev;
  ev.at = sim_->Now();
  ev.type = type;
  ev.node = topo_.host_node(host);
  ev.flow = flow;
  ev.src = host;
  ev.seq = seq;
  // No packet identity: these are sender-state events. uid stays 0 so the
  // trace bus's sampling treats them as control events and keeps them.
  Dispatch(ev);
}

uint64_t Network::TotalBufferedPackets() const {
  uint64_t total = 0;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    const TopoNode& tn = topo_.node(static_cast<int>(n));
    if (tn.kind == NodeKind::kHost) {
      total += static_cast<const HostNode*>(nodes_[n].get())->nic().queue().size_packets();
    } else {
      total += static_cast<const SwitchNode*>(nodes_[n].get())->buffered_packets();
    }
  }
  return total;
}

void Network::NotifyDetour(int node, uint16_t port, const Packet& p) {
  ++total_detours_;
  if (Wants(TraceEventType::kDetour)) {
    Dispatch(MakeTracePacketEvent(TraceEventType::kDetour, sim_->Now(), node, port, p));
  }
}

void Network::NotifyDrop(int node, const Packet& p, DropReason reason) {
  ++drops_by_reason_[static_cast<size_t>(reason)];
  if (Wants(TraceEventType::kDrop)) {
    Dispatch(MakeTraceDropEvent(sim_->Now(), node, p, static_cast<uint8_t>(reason)));
  }
}

uint64_t Network::total_drops() const {
  uint64_t total = 0;
  for (const uint64_t n : drops_by_reason_) {
    total += n;
  }
  return total;
}

void Network::NotifyEviction(int node, const Packet& p) {
  if (Wants(TraceEventType::kDrop)) {
    Dispatch(MakeTraceDropEvent(sim_->Now(), node, p, kTraceEvictionReason));
  }
}

Port& Network::PortAt(int node_id, uint16_t port_index) {
  Node* node = nodes_[static_cast<size_t>(node_id)].get();
  if (topo_.node(node_id).kind == NodeKind::kHost) {
    DIBS_DCHECK(port_index == 0);
    return static_cast<HostNode*>(node)->nic();
  }
  return static_cast<SwitchNode*>(node)->port(port_index);
}

uint16_t Network::PortIndexOf(int node_id, int link) const {
  const auto& refs = topo_.ports(node_id);
  for (uint16_t i = 0; i < refs.size(); ++i) {
    if (refs[i].link == link) {
      return i;
    }
  }
  DIBS_LOG(kFatal) << "link " << link << " is not incident to node " << node_id;
  return UINT16_MAX;
}

void Network::ApplyLinkEffective(int link) {
  const TopoLink& l = topo_.link(link);
  const bool up = link_admin_up_[static_cast<size_t>(link)] &&
                  node_up_[static_cast<size_t>(l.node_a)] &&
                  node_up_[static_cast<size_t>(l.node_b)];
  const TraceEventType edge = up ? TraceEventType::kLinkUp : TraceEventType::kLinkDown;
  if (link_effective_up_[static_cast<size_t>(link)] != up && Wants(edge)) {
    TraceEvent ev;
    ev.at = sim_->Now();
    ev.type = edge;
    ev.port = link;  // link-scoped: port carries the link id, node stays -1
    Dispatch(ev);
  }
  link_effective_up_[static_cast<size_t>(link)] = up;
  const uint16_t port_a = PortIndexOf(l.node_a, link);
  const uint16_t port_b = PortIndexOf(l.node_b, link);
  PortAt(l.node_a, port_a).SetLinkUp(up);
  PortAt(l.node_b, port_b).SetLinkUp(up);
  // Mask (or restore) the link in the live FIB so routing and ECMP only ever
  // pick among live next hops.
  fib_.SetPortState(l.node_a, port_a, up);
  fib_.SetPortState(l.node_b, port_b, up);
}

void Network::SetLinkAdminState(int link, bool up) {
  DIBS_CHECK(link >= 0 && link < topo_.num_links()) << "bad link id " << link;
  if (link_admin_up_[static_cast<size_t>(link)] == up) {
    return;
  }
  link_admin_up_[static_cast<size_t>(link)] = up;
  ApplyLinkEffective(link);
}

void Network::SetSwitchOperational(int node_id, bool up) {
  DIBS_CHECK(IsSwitchNode(node_id)) << "node " << node_id << " is not a switch";
  if (node_up_[static_cast<size_t>(node_id)] == up) {
    return;
  }
  node_up_[static_cast<size_t>(node_id)] = up;
  const TraceEventType edge = up ? TraceEventType::kSwitchUp : TraceEventType::kSwitchDown;
  if (Wants(edge)) {
    TraceEvent ev;
    ev.at = sim_->Now();
    ev.type = edge;
    ev.node = node_id;
    Dispatch(ev);
  }
  switch_at(node_id).SetCrashed(!up);
  // Every adjacent link's effective state may have changed. Crashing drains
  // the switch's own queues (its ports go down); restarting only revives
  // links whose admin state and peer liveness also allow it.
  for (const PortRef& ref : topo_.ports(node_id)) {
    ApplyLinkEffective(ref.link);
  }
}

void Network::SetLinkDegraded(int link, double loss_probability, Time extra_jitter) {
  DIBS_CHECK(link >= 0 && link < topo_.num_links()) << "bad link id " << link;
  DIBS_CHECK(loss_probability >= 0.0 && loss_probability < 1.0)
      << "loss probability must be in [0, 1)";
  const TopoLink& l = topo_.link(link);
  PortAt(l.node_a, PortIndexOf(l.node_a, link)).SetDegraded(loss_probability, extra_jitter);
  PortAt(l.node_b, PortIndexOf(l.node_b, link)).SetDegraded(loss_probability, extra_jitter);
}

bool Network::LinkUp(int link) const {
  const TopoLink& l = topo_.link(link);
  return link_admin_up_[static_cast<size_t>(link)] &&
         node_up_[static_cast<size_t>(l.node_a)] && node_up_[static_cast<size_t>(l.node_b)];
}

bool Network::SwitchOperational(int node_id) const {
  return node_up_[static_cast<size_t>(node_id)];
}

void Network::NotifyHostDeliver(HostId host, const Packet& p) {
  ++total_delivered_;
  if (Wants(TraceEventType::kHostDeliver)) {
    Dispatch(MakeTracePacketEvent(TraceEventType::kHostDeliver, sim_->Now(),
                                  topo_.host_node(host), /*port=*/-1, p));
  }
}

}  // namespace dibs
