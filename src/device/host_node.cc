#include "src/device/host_node.h"

#include <utility>

#include "src/device/network.h"
#include "src/util/logging.h"

namespace dibs {

bool HostNode::Send(Packet&& p) {
  DIBS_DCHECK(p.src == host_id_);
  // Same admission contract as the switch pipeline: consult IsFull first and
  // never Enqueue into a full queue. Checking up front also means the
  // injection notification below only fires for packets the network actually
  // accepted — a refused packet never enters the conservation ledger.
  if (port_->queue().IsFull(p)) {
    ++nic_drops_;
    return false;
  }
  network_->NotifyHostSend(host_id_, p);
  const bool accepted = port_->EnqueueAndTransmit(std::move(p));
  DIBS_CHECK(accepted) << "host NIC queue refused a packet that reported room";
  return true;
}

void HostNode::HandleReceive(Packet&& p, uint16_t in_port) {
  DIBS_CHECK(p.dst == host_id_) << "host " << host_id_ << " received transit packet for "
                                << p.dst << " — switches must never detour to hosts";
  network_->NotifyHostDeliver(host_id_, p);
  auto it = receivers_.find(p.flow);
  if (it == receivers_.end()) {
    ++stray_packets_;
    return;
  }
  // The handler may unregister itself (flow completion); copy the callback
  // out so the map mutation cannot invalidate what we are executing.
  Receiver handler = it->second;
  handler(std::move(p));
}

void HostNode::RegisterFlowReceiver(FlowId flow, Receiver receiver) {
  const bool inserted = receivers_.emplace(flow, std::move(receiver)).second;
  DIBS_CHECK(inserted) << "duplicate receiver for flow " << flow;
}

void HostNode::UnregisterFlowReceiver(FlowId flow) { receivers_.erase(flow); }

}  // namespace dibs
