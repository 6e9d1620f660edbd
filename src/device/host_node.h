// End host: a single NIC port into its edge switch plus a flow-id demux that
// hands received packets to the transport layer. Hosts never forward transit
// traffic — a packet arriving for another destination is a protocol error.

#ifndef SRC_DEVICE_HOST_NODE_H_
#define SRC_DEVICE_HOST_NODE_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/device/node.h"
#include "src/device/port.h"

namespace dibs {

class Network;

class HostNode : public Node {
 public:
  using Receiver = std::function<void(Packet&&)>;

  HostNode(Network* network, int id, HostId host_id)
      : Node(id), network_(network), host_id_(host_id) {}

  void SetPort(std::unique_ptr<Port> port) { port_ = std::move(port); }

  HostId host_id() const { return host_id_; }
  Port& nic() { return *port_; }
  const Port& nic() const { return *port_; }

  // Transmits `p` through the NIC. The caller (a transport socket) has
  // already stamped uid/flow/seq. The NIC queue is unbounded: the
  // transport's window is the real bound.
  void Send(Packet&& p);

  void HandleReceive(Packet&& p, uint16_t in_port) override;

  // Ethernet flow control reaches all the way to the sender's NIC.
  void SetPortPaused(uint16_t port, bool paused) override { port_->SetPaused(paused); }

  // Transports register per-flow handlers: the flow's receiver registers on
  // the destination host (for data) and its sender on the source host (for
  // ACKs). Packets for unregistered flows are counted and discarded — they
  // are late retransmissions or post-teardown ACKs.
  void RegisterFlowReceiver(FlowId flow, Receiver receiver);
  void UnregisterFlowReceiver(FlowId flow);

  uint64_t stray_packets() const { return stray_packets_; }

 private:
  Network* network_;
  HostId host_id_;
  std::unique_ptr<Port> port_;
  std::unordered_map<FlowId, Receiver> receivers_;  // lint:allow(unordered-iter): lookup only
  uint64_t stray_packets_ = 0;
};

}  // namespace dibs

#endif  // SRC_DEVICE_HOST_NODE_H_
