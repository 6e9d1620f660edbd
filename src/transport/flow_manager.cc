#include "src/transport/flow_manager.h"

#include <utility>

#include "src/device/host_node.h"
#include "src/device/network.h"
#include "src/util/logging.h"

namespace dibs {

FlowManager::FlowManager(Network* network, TransportKind kind, TcpConfig tcp_config,
                         PfabricConfig pfabric_config)
    : network_(network),
      kind_(kind),
      tcp_config_(tcp_config),
      pfabric_config_(pfabric_config) {}

FlowManager::~FlowManager() = default;

FlowId FlowManager::StartFlow(HostId src, HostId dst, uint64_t bytes,
                              TrafficClass traffic_class,
                              FlowCompletionCallback on_complete) {
  DIBS_CHECK_NE(src, dst);
  DIBS_CHECK(src >= 0 && src < network_->num_hosts());
  DIBS_CHECK(dst >= 0 && dst < network_->num_hosts());

  const FlowId id = next_flow_id_++;
  FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = dst;
  spec.size_bytes = bytes;
  spec.traffic_class = traffic_class;
  spec.start_time = network_->sim().Now();

  ActiveFlow flow;
  flow.spec = spec;

  // Receiver side: completion merges sender-side counters into the result
  // before invoking the caller.
  flow.receiver =
      std::make_unique<TcpReceiver>(network_, spec, WrapCompletion(id, std::move(on_complete)));

  if (kind_ == TransportKind::kPfabric) {
    flow.pfabric_sender = std::make_unique<PfabricSender>(network_, spec, pfabric_config_,
                                                          [this, id] { OnSenderDone(id); });
  } else {
    flow.tcp_sender = std::make_unique<TcpSender>(network_, spec, tcp_config_,
                                                  [this, id] { OnSenderDone(id); });
  }

  auto [it, inserted] = flows_.emplace(id, std::move(flow));
  DIBS_CHECK(inserted);
  ActiveFlow& active = it->second;

  // Demux wiring: data -> receiver on dst, ACKs -> sender on src.
  network_->host(dst).RegisterFlowReceiver(
      id, [recv = active.receiver.get()](Packet&& p) { recv->OnData(std::move(p)); });
  if (active.tcp_sender != nullptr) {
    network_->host(src).RegisterFlowReceiver(
        id, [snd = active.tcp_sender.get()](Packet&& p) { snd->OnAck(std::move(p)); });
    active.tcp_sender->Start();
  } else {
    network_->host(src).RegisterFlowReceiver(
        id, [snd = active.pfabric_sender.get()](Packet&& p) { snd->OnAck(std::move(p)); });
    active.pfabric_sender->Start();
  }

  ++flows_started_;
  return id;
}

FlowCompletionCallback FlowManager::WrapCompletion(FlowId id, FlowCompletionCallback cb) {
  return [this, id, cb = std::move(cb)](const FlowResult& r) {
    ++flows_completed_;
    FlowResult merged = r;
    if (auto it = flows_.find(id); it != flows_.end()) {
      if (it->second.tcp_sender != nullptr) {
        merged.retransmits = it->second.tcp_sender->retransmits();
        merged.timeouts = it->second.tcp_sender->timeouts();
        merged.marked_acks = it->second.tcp_sender->marked_acks();
      } else if (it->second.pfabric_sender != nullptr) {
        merged.retransmits = it->second.pfabric_sender->retransmits();
        merged.timeouts = it->second.pfabric_sender->timeouts();
      }
    }
    if (cb) {
      cb(merged);
    }
  };
}

void FlowManager::OnSenderDone(FlowId id) {
  // Called from inside the sender's ACK path: defer the teardown one event so
  // we never destroy an object that is still on the call stack.
  network_->sim().Schedule(Time::Zero(), [this, id] { FinishTeardown(id); });
}

void FlowManager::FinishTeardown(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return;
  }
  network_->host(it->second.spec.src).UnregisterFlowReceiver(id);
  it->second.tcp_sender.reset();
  it->second.pfabric_sender.reset();
  // The receiver entry stays: late duplicate data must keep getting ACKed.
}

TcpSender* FlowManager::tcp_sender(FlowId id) {
  auto it = flows_.find(id);
  return it == flows_.end() ? nullptr : it->second.tcp_sender.get();
}

PfabricSender* FlowManager::pfabric_sender(FlowId id) {
  auto it = flows_.find(id);
  return it == flows_.end() ? nullptr : it->second.pfabric_sender.get();
}

TcpReceiver* FlowManager::receiver(FlowId id) {
  auto it = flows_.find(id);
  return it == flows_.end() ? nullptr : it->second.receiver.get();
}

}  // namespace dibs
