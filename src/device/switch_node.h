// Output-queued switch with the DIBS forwarding pipeline.
//
// Receive path (§2, §4): decrement TTL → FIB lookup → flow-level ECMP pick →
// if the desired queue has room, enqueue (the queue CE-marks above the DCTCP
// threshold) → otherwise consult the detour policy: detour to an eligible
// port (CE-marking the packet, per §5.3 "the detoured packets are also
// marked") or drop when every eligible buffer is full.

#ifndef SRC_DEVICE_SWITCH_NODE_H_
#define SRC_DEVICE_SWITCH_NODE_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/core/detour_policy.h"
#include "src/device/node.h"
#include "src/device/port.h"
#include "src/net/drop_reason.h"

namespace dibs {

class Network;

class SwitchNode : public Node {
 public:
  SwitchNode(Network* network, int id) : Node(id), network_(network) {}

  void AddPort(std::unique_ptr<Port> port) { ports_.push_back(std::move(port)); }

  void HandleReceive(Packet&& p, uint16_t in_port) override;

  // Ethernet flow control hooks (§6). A neighbor pauses/resumes our
  // transmitter toward it; our own dequeues re-evaluate the watermarks.
  void SetPortPaused(uint16_t port, bool paused) override;
  void OnPortDequeue(uint16_t port) override;

  size_t num_ports() const { return ports_.size(); }
  Port& port(uint16_t i) { return *ports_[i]; }
  const Port& port(uint16_t i) const { return *ports_[i]; }

  // Total packets currently buffered across all output queues.
  size_t buffered_packets() const;

  // Sum of static per-port capacities (0 if any queue is unbounded).
  size_t buffer_capacity_packets() const;

  // Fault model (src/fault): a crashed switch drops everything it receives
  // (DropReason::kFaultSwitchDown) until restarted. Link state for the
  // switch's ports is managed separately by Network::SetSwitchOperational,
  // which takes every adjacent link down alongside the crash.
  void SetCrashed(bool crashed) { crashed_ = crashed; }
  bool crashed() const { return crashed_; }

  uint64_t detours() const { return detours_; }
  uint64_t drops() const { return drops_; }
  uint64_t forwarded() const { return forwarded_; }
  uint64_t pause_events() const { return pause_events_; }
  bool pausing_neighbors() const { return pausing_neighbors_; }

 private:
  // Enqueues on `out_port` (must have room) and updates counters.
  void Forward(Packet&& p, uint16_t out_port);

  // Detour-or-drop slow path once the desired queue refused the packet.
  void DetourOrDrop(Packet&& p, uint16_t desired_port, uint16_t in_port);

  // Why the policy declined: queue-overflow (DIBS off / nowhere to try),
  // no-detour-available (live candidates all full), or no-eligible-detour
  // (every switch-facing port paused or down — a fabric-wide PFC storm).
  DropReason DeclineReason(const std::vector<DetourPortInfo>& snapshot,
                           uint16_t desired_port, bool dibs_configured) const;

  // Builds the per-port snapshot the policy decides over.
  std::vector<DetourPortInfo> SnapshotPorts(const Packet& p) const;

  // Ethernet flow control: crossing XOFF pauses all neighbors; dropping back
  // to XON resumes them.
  void UpdateFlowControl();
  void BroadcastPause(bool paused);

  Network* network_;
  std::vector<std::unique_ptr<Port>> ports_;
  bool crashed_ = false;
  uint64_t detours_ = 0;
  uint64_t drops_ = 0;
  uint64_t forwarded_ = 0;
  bool pausing_neighbors_ = false;
  uint64_t pause_events_ = 0;
};

}  // namespace dibs

#endif  // SRC_DEVICE_SWITCH_NODE_H_
