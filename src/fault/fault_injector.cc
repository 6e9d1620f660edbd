#include "src/fault/fault_injector.h"

#include "src/util/logging.h"

namespace dibs::fault {

namespace {

bool IsLinkFault(FaultKind kind) {
  return kind == FaultKind::kLinkDown || kind == FaultKind::kLinkUp ||
         kind == FaultKind::kDegradeLink || kind == FaultKind::kRestoreLink;
}

// Repairs heal something; the other kinds break it.
bool IsRepair(FaultKind kind) {
  return kind == FaultKind::kLinkUp || kind == FaultKind::kSwitchRestart ||
         kind == FaultKind::kRestoreLink;
}

}  // namespace

void FaultInjector::Validate(const FaultEvent& event) const {
  const Topology& topo = network_->topology();
  if (IsLinkFault(event.kind)) {
    DIBS_CHECK(event.target >= 0 && event.target < topo.num_links())
        << FaultKindName(event.kind) << " targets bad link id " << event.target;
  } else {
    DIBS_CHECK(event.target >= 0 && event.target < topo.num_nodes())
        << FaultKindName(event.kind) << " targets bad node id " << event.target;
    DIBS_CHECK(network_->IsSwitchNode(event.target))
        << FaultKindName(event.kind) << " targets node " << event.target
        << ", which is not a switch";
  }
  DIBS_CHECK(event.at >= network_->sim().Now())
      << FaultKindName(event.kind) << " scheduled in the past (t=" << event.at << ")";
}

void FaultInjector::Start() {
  for (const FaultEvent& event : plan_.Sorted()) {
    Validate(event);
    network_->sim().Schedule(event.at - network_->sim().Now(), [this, event] { Apply(event); });
    ++events_scheduled_;
  }
}

void FaultInjector::Apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kLinkDown:
      network_->SetLinkAdminState(event.target, false);
      break;
    case FaultKind::kLinkUp:
      network_->SetLinkAdminState(event.target, true);
      break;
    case FaultKind::kSwitchCrash:
      network_->SetSwitchOperational(event.target, false);
      break;
    case FaultKind::kSwitchRestart:
      network_->SetSwitchOperational(event.target, true);
      break;
    case FaultKind::kDegradeLink:
      network_->SetLinkDegraded(event.target, event.loss_probability, event.extra_jitter);
      break;
    case FaultKind::kRestoreLink:
      network_->SetLinkDegraded(event.target, 0, Time::Zero());
      break;
  }
  ++events_applied_;
  if (stats_ != nullptr && IsRepair(event.kind)) {
    stats_->OnFaultRepaired(event.at);
  }
}

}  // namespace dibs::fault
