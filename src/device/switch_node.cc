#include "src/device/switch_node.h"

#include <algorithm>
#include <utility>

#include "src/device/network.h"
#include "src/util/logging.h"

namespace dibs {

void SwitchNode::HandleReceive(Packet&& p, uint16_t in_port) {
  Network& net = *network_;

  // A crashed switch eats everything — packets that were already on the wire
  // toward it when it died land here and die with it.
  if (crashed_) {
    ++drops_;
    net.NotifyDrop(id(), p, DropReason::kFaultSwitchDown);
    return;
  }

  // Overload guard: per-packet pressure signals. One null check when the
  // guard is off; plain counter increments when it is on.
  GuardFabric* guard = net.guard();
  if (guard != nullptr) {
    guard->NotePacket(id());
  }

  // TTL: one decrement per switch hop; bounds the total detour budget
  // (§5.5.3). A packet arriving with ttl 1 cannot be forwarded again.
  if (p.ttl <= 1) {
    ++drops_;
    if (guard != nullptr) {
      guard->NoteTtlExpiry(id());
    }
    net.NotifyDrop(id(), p, DropReason::kTtlExpired);
    return;
  }
  --p.ttl;

  const auto& route = net.fib().NextHopPorts(id(), p.dst);
  if (route.empty()) {
    // Distinguish "the topology never had a path" from "paths exist but every
    // next-hop link is currently down" — the latter is a fault drop.
    const bool had_route = !net.fib().AllNextHopPorts(id(), p.dst).empty();
    ++drops_;
    net.NotifyDrop(id(), p,
                   had_route ? DropReason::kFaultNoLiveRoute : DropReason::kNoRoute);
    return;
  }
  uint16_t desired;
  if (net.config().packet_level_ecmp && route.size() > 1) {
    desired = route[static_cast<size_t>(
        net.sim().rng().UniformInt(0, static_cast<int64_t>(route.size()) - 1))];
  } else {
    desired = net.fib().EcmpPort(id(), p.dst, p.flow);
  }
  Port& out = *ports_[desired];

  if (!out.queue().IsFull(p)) {
    // Probabilistic detouring (§7) may move low-priority traffic aside even
    // before the queue fills. All other policies never fire here.
    DetourContext ctx;
    ctx.node = id();
    ctx.desired_port = desired;
    ctx.in_port = in_port;
    ctx.desired_queue_len = out.queue().size_packets();
    ctx.desired_queue_cap = out.queue().capacity_packets();
    ctx.packet = &p;
    std::vector<DetourPortInfo> snapshot;
    // A suppressed breaker also vetoes early (probabilistic) detours — the
    // packet simply takes its desired queue, which has room here.
    const bool guard_allows = guard == nullptr || (guard->DetourEnabled(id()) &&
                                                   p.detour_count < guard->DetourBudget());
    if (guard_allows && net.detour_policy().ShouldDetourEarly(ctx, net.sim().rng())) {
      snapshot = SnapshotPorts(p);
      ctx.ports = &snapshot;
      if (auto port = net.detour_policy().ChoosePort(ctx, net.sim().rng()); port.has_value()) {
        ++detours_;
        ++p.detour_count;
        if (guard != nullptr) {
          guard->NoteDetour(id(), /*bounce_back=*/*port == in_port);
        }
        if (p.ect) {
          p.ce = true;
        }
        net.NotifyDetour(id(), *port, p);
        Forward(std::move(p), *port);
        return;
      }
    }
    Forward(std::move(p), desired);
    return;
  }

  DetourOrDrop(std::move(p), desired, in_port);
}

void SwitchNode::DetourOrDrop(Packet&& p, uint16_t desired_port, uint16_t in_port) {
  Network& net = *network_;

  // Overload guard: the breaker (guard-suppressed) and the adaptive TTL
  // clamp (guard-ttl-clamped) veto before the policy runs — a vetoed
  // decision must not consume policy RNG, or suppressed stretches would
  // perturb every later draw.
  const bool dibs_configured = net.config().detour_policy != "none";
  if (GuardFabric* guard = net.guard(); guard != nullptr && dibs_configured) {
    if (auto deny = guard->AdmitDetour(id(), p.detour_count); deny.has_value()) {
      ++drops_;
      net.NotifyDrop(id(), p, *deny);
      return;
    }
  }

  std::vector<DetourPortInfo> snapshot = SnapshotPorts(p);

  DetourContext ctx;
  ctx.node = id();
  ctx.desired_port = desired_port;
  ctx.in_port = in_port;
  ctx.desired_queue_len = ports_[desired_port]->queue().size_packets();
  ctx.desired_queue_cap = ports_[desired_port]->queue().capacity_packets();
  ctx.packet = &p;
  ctx.ports = &snapshot;

  std::optional<uint16_t> port = net.detour_policy().ChoosePort(ctx, net.sim().rng());
  if (!port.has_value()) {
    ++drops_;
    net.NotifyDrop(id(), p, DeclineReason(snapshot, desired_port, dibs_configured));
    return;
  }

  ++detours_;
  ++p.detour_count;
  if (GuardFabric* guard = net.guard(); guard != nullptr) {
    guard->NoteDetour(id(), /*bounce_back=*/*port == in_port);
  }
  // Detoured packets travel a longer path through congested territory — mark
  // them so DCTCP still sees the congestion signal (§5.3).
  if (p.ect) {
    p.ce = true;
  }
  net.NotifyDetour(id(), *port, p);
  Forward(std::move(p), *port);
}

DropReason SwitchNode::DeclineReason(const std::vector<DetourPortInfo>& snapshot,
                                     uint16_t desired_port, bool dibs_configured) const {
  const bool dibs_active = snapshot.size() > 1 && dibs_configured;
  if (!dibs_active) {
    return DropReason::kQueueOverflow;
  }
  // Distinguish WHY the policy declined. kNoDetourAvailable keeps its
  // historical meaning — live candidates existed but every one was full.
  // When switch-facing neighbors exist yet every one is paused or down (a
  // fabric-wide PFC storm, or every neighbor dead), the eligible set was
  // structurally empty and the drop is a distinct failure mode.
  bool any_switch_facing = false;
  bool any_live = false;
  for (const DetourPortInfo& info : snapshot) {
    if (info.port == desired_port || !info.to_switch) {
      continue;
    }
    any_switch_facing = true;
    if (info.link_up && !info.paused) {
      any_live = true;
      break;
    }
  }
  if (any_switch_facing && !any_live) {
    return DropReason::kNoEligibleDetour;
  }
  return DropReason::kNoDetourAvailable;
}

void SwitchNode::Forward(Packet&& p, uint16_t out_port) {
  ++forwarded_;
  const bool accepted = ports_[out_port]->EnqueueAndTransmit(std::move(p));
  if (network_->config().pfc_enabled) {
    UpdateFlowControl();
  }
  // The pipeline only forwards to queues that reported room (or, for pFabric,
  // queues that evict a lower-priority packet), so admission cannot fail for
  // drop-tail queues. pFabric admission failure is the arriving packet losing
  // the priority comparison — counted inside PfabricQueue.
  if (!accepted && !network_->config().pfabric_queues) {
    DIBS_LOG(kFatal) << "drop-tail queue refused a packet that reported room";
  }
}

void SwitchNode::SetPortPaused(uint16_t port, bool paused) {
  DIBS_DCHECK(port < ports_.size());
  ports_[port]->SetPaused(paused);
}

void SwitchNode::OnPortDequeue(uint16_t port) {
  if (network_->config().pfc_enabled) {
    UpdateFlowControl();
  }
}

void SwitchNode::UpdateFlowControl() {
  const NetworkConfig& cfg = network_->config();
  size_t deepest = 0;
  size_t shallowest_above_xon = 0;
  for (const auto& port : ports_) {
    const size_t len = port->queue().size_packets();
    deepest = std::max(deepest, len);
    if (len > cfg.pfc_xon_packets) {
      ++shallowest_above_xon;
    }
  }
  if (!pausing_neighbors_ && deepest >= cfg.pfc_xoff_packets) {
    pausing_neighbors_ = true;
    ++pause_events_;
    BroadcastPause(true);
  } else if (pausing_neighbors_ && shallowest_above_xon == 0) {
    pausing_neighbors_ = false;
    BroadcastPause(false);
  }
}

void SwitchNode::BroadcastPause(bool paused) {
  // Pause frames are link-local control traffic: modeled out-of-band (no
  // queueing/serialization), arriving after one propagation delay.
  for (auto& port : ports_) {
    Port* p = port.get();
    network_->sim().Schedule(p->prop_delay(),
                             [p, paused] { p->peer()->SetPortPaused(p->peer_port(), paused); });
  }
}

std::vector<DetourPortInfo> SwitchNode::SnapshotPorts(const Packet& p) const {
  std::vector<DetourPortInfo> snapshot(ports_.size());
  for (uint16_t i = 0; i < ports_.size(); ++i) {
    const Port& port = *ports_[i];
    snapshot[i].port = i;
    snapshot[i].to_switch = port.peer_is_switch();
    snapshot[i].full = port.queue().IsFull(p);
    snapshot[i].queue_len = port.queue().size_packets();
    snapshot[i].queue_cap = port.queue().capacity_packets();
    snapshot[i].link_up = port.link_up();
    snapshot[i].paused = port.paused();
  }
  return snapshot;
}

size_t SwitchNode::buffered_packets() const {
  size_t total = 0;
  for (const auto& port : ports_) {
    total += port->queue().size_packets();
  }
  return total;
}

size_t SwitchNode::buffer_capacity_packets() const {
  size_t total = 0;
  for (const auto& port : ports_) {
    if (port->queue().capacity_packets() == 0) {
      return 0;
    }
    total += port->queue().capacity_packets();
  }
  return total;
}

}  // namespace dibs
