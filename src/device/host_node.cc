#include "src/device/host_node.h"

#include <utility>

#include "src/device/network.h"
#include "src/util/logging.h"

namespace dibs {

void HostNode::Send(Packet&& p) {
  DIBS_DCHECK(p.src == host_id_);
  network_->NotifyHostSend(host_id_, p);
  const bool accepted = port_->EnqueueAndTransmit(std::move(p));
  DIBS_CHECK(accepted) << "host NIC queue refused a packet";
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
