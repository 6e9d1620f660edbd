// FlowManager: creates and wires the two ends of each flow, routes host
// demux registrations, and tears senders down when their last ACK arrives.
//
// Receivers stay registered for the lifetime of the run so that duplicate
// (late, detour-delayed, or retransmitted) data keeps being ACKed — tearing
// them down early would strand a sender whose final ACK was lost.

#ifndef SRC_TRANSPORT_FLOW_MANAGER_H_
#define SRC_TRANSPORT_FLOW_MANAGER_H_

#include <map>
#include <memory>

#include "src/transport/flow.h"
#include "src/transport/pfabric_sender.h"
#include "src/transport/tcp_config.h"
#include "src/transport/tcp_receiver.h"
#include "src/transport/tcp_sender.h"

namespace dibs {

class Network;

class FlowManager {
 public:
  FlowManager(Network* network, TransportKind kind, TcpConfig tcp_config = TcpConfig(),
              PfabricConfig pfabric_config = PfabricConfig());
  ~FlowManager();

  FlowManager(const FlowManager&) = delete;
  FlowManager& operator=(const FlowManager&) = delete;

  // Starts a flow immediately (callers schedule future starts through the
  // simulator). `on_complete` fires when the receiver has all the data.
  FlowId StartFlow(HostId src, HostId dst, uint64_t bytes, TrafficClass traffic_class,
                   FlowCompletionCallback on_complete);

  uint64_t flows_started() const { return flows_started_; }
  uint64_t flows_completed() const { return flows_completed_; }

  // Test access to live endpoint state; nullptr once torn down / completed.
  TcpSender* tcp_sender(FlowId id);
  PfabricSender* pfabric_sender(FlowId id);
  TcpReceiver* receiver(FlowId id);

  TransportKind kind() const { return kind_; }
  const TcpConfig& tcp_config() const { return tcp_config_; }

 private:
  struct ActiveFlow {
    FlowSpec spec;
    std::unique_ptr<TcpSender> tcp_sender;
    std::unique_ptr<PfabricSender> pfabric_sender;
    std::unique_ptr<TcpReceiver> receiver;
  };

  void OnSenderDone(FlowId id);
  void FinishTeardown(FlowId id);

  // The receiver-completion closure: merge the sender's counters into the
  // result, then invoke `cb`.
  FlowCompletionCallback WrapCompletion(FlowId id, FlowCompletionCallback cb);

  Network* network_;
  TransportKind kind_;
  TcpConfig tcp_config_;
  PfabricConfig pfabric_config_;

  FlowId next_flow_id_ = 1;
  uint64_t flows_started_ = 0;
  uint64_t flows_completed_ = 0;
  // Ordered so teardown and any diagnostic iteration follow FlowId order
  // (determinism lint rule: unordered-iter).
  std::map<FlowId, ActiveFlow> flows_;
};

}  // namespace dibs

#endif  // SRC_TRANSPORT_FLOW_MANAGER_H_
