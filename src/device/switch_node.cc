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
    net.NotifyDrop(id(), p, DropReason::kFaultSwitchDown);
    return;
  }

  // Overload guard: per-packet pressure signal. One null check when the
  // guard is off; plain counter increments when it is on.
  if (GuardFabric* guard = net.guard(); guard != nullptr) {
    guard->NotePacket(id());
  }

  // TTL: one decrement per switch hop; bounds the total detour budget
  // (§5.5.3). A packet arriving with ttl 1 cannot be forwarded again.
  if (p.ttl <= 1) {
    net.NotifyDrop(id(), p, DropReason::kTtlExpired);
    return;
  }
  --p.ttl;

  const auto& route = net.fib().NextHopPorts(id(), p.dst);
  if (route.empty()) {
    // Distinguish "the topology never had a path" from "paths exist but every
    // next-hop link is currently down" — the latter is a fault drop.
    const bool had_route = !net.fib().AllNextHopPorts(id(), p.dst).empty();
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
  if (!ports_[desired]->queue().IsFull(p)) {
    Forward(std::move(p), desired);
    return;
  }
  DetourOrDrop(std::move(p), desired);
}

void SwitchNode::DetourOrDrop(Packet&& p, uint16_t desired_port) {
  Network& net = *network_;
  const DetourPolicy policy = net.detour_policy();
  if (policy == DetourPolicy::kNone) {
    net.NotifyDrop(id(), p, DropReason::kQueueOverflow);  // DIBS off: plain drop-tail
    return;
  }

  // Overload guard: the breaker (guard-suppressed) and the adaptive TTL
  // clamp (guard-ttl-clamped) veto before the policy runs — a vetoed
  // decision must not consume policy RNG, or suppressed stretches would
  // perturb every later draw.
  GuardFabric* guard = net.guard();
  if (guard != nullptr) {
    if (auto deny = guard->AdmitDetour(id(), p.detour_count); deny.has_value()) {
      net.NotifyDrop(id(), p, *deny);
      return;
    }
  }

  if (auto reason = FindCandidates(p, desired_port); reason.has_value()) {
    net.NotifyDrop(id(), p, *reason);
    return;
  }
  const uint16_t port = ChooseDetourPort(policy, candidates_, net.sim().rng());
  ++p.detour_count;
  if (guard != nullptr) {
    guard->NoteDetour();
  }
  // Detoured packets travel a longer path through congested territory — mark
  // them so DCTCP still sees the congestion signal (§5.3).
  if (p.ect) {
    p.ce = true;
  }
  net.NotifyDetour(id(), port, p);
  Forward(std::move(p), port);
}

std::optional<DropReason> SwitchNode::FindCandidates(const Packet& p, uint16_t desired_port) {
  candidates_.clear();
  bool any_switch_facing = false;
  bool any_live = false;
  for (uint16_t i = 0; i < ports_.size(); ++i) {
    const Port& port = *ports_[i];
    if (i == desired_port || !port.peer_is_switch()) {
      continue;
    }
    any_switch_facing = true;
    if (!port.link_up() || port.paused()) {
      continue;
    }
    any_live = true;
    if (!port.queue().IsFull(p)) {
      candidates_.push_back({i, port.queue().size_packets()});
    }
  }
  if (!candidates_.empty()) {
    return std::nullopt;
  }
  if (ports_.size() == 1) {
    return DropReason::kQueueOverflow;
  }
  return any_switch_facing && !any_live ? DropReason::kNoEligibleDetour
                                        : DropReason::kNoDetourAvailable;
}

void SwitchNode::Forward(Packet&& p, uint16_t out_port) {
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
