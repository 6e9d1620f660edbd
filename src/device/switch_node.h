// Output-queued switch with the DIBS forwarding pipeline.
//
// Receive path (§2, §4): decrement TTL → FIB lookup → flow-level ECMP pick →
// if the desired queue has room, enqueue (the queue CE-marks above the DCTCP
// threshold) → otherwise detour to a candidate port the detour policy picks
// (CE-marking the packet, per §5.3 "the detoured packets are also marked"),
// or drop when there is none. The switch alone decides which ports are
// candidates (§2 plus the failure model the paper leaves implicit —
// borrowing a neighbor's buffer assumes the neighbor is alive and draining):
//   * never the desired port, and never a host-facing port (hosts do not
//     forward),
//   * never a port whose own queue is full,
//   * never a port whose link is down or whose peer has crashed,
//   * never an Ethernet-paused port (its queue cannot drain),
//   * the input port IS a candidate (packets may bounce straight back, Fig 1).

#ifndef SRC_DEVICE_SWITCH_NODE_H_
#define SRC_DEVICE_SWITCH_NODE_H_

#include <memory>
#include <optional>
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

  uint64_t pause_events() const { return pause_events_; }
  bool pausing_neighbors() const { return pausing_neighbors_; }

 private:
  // Enqueues on `out_port` (must have room) and re-evaluates flow control.
  void Forward(Packet&& p, uint16_t out_port);

  // Detour-or-drop slow path once the desired queue refused the packet: the
  // guard's veto, then the candidates, then the policy's pick, which is
  // counted, fed to the guard, CE-marked and forwarded.
  void DetourOrDrop(Packet&& p, uint16_t desired_port);

  // Fills candidates_, in port order, with the ports a packet bound for
  // `desired_port` may detour to (see the file comment). Returns nullopt
  // when there is at least one, else the drop reason: queue-overflow on a
  // one-port switch, no-eligible-detour when every other switch-facing port
  // is down or paused (a fabric-wide PFC storm, or every neighbor dead), and
  // no-detour-available otherwise (live candidates all full).
  std::optional<DropReason> FindCandidates(const Packet& p, uint16_t desired_port);

  // Ethernet flow control: crossing XOFF pauses all neighbors; dropping back
  // to XON resumes them.
  void UpdateFlowControl();
  void BroadcastPause(bool paused);

  Network* network_;
  std::vector<std::unique_ptr<Port>> ports_;
  bool crashed_ = false;
  bool pausing_neighbors_ = false;
  uint64_t pause_events_ = 0;
  std::vector<DetourCandidate> candidates_;  // reused by every detour decision
};

}  // namespace dibs

#endif  // SRC_DEVICE_SWITCH_NODE_H_
