#include "src/fault/fault_plan.h"

#include <algorithm>

#include "src/util/logging.h"

namespace dibs::fault {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown:
      return "link-down";
    case FaultKind::kLinkUp:
      return "link-up";
    case FaultKind::kSwitchCrash:
      return "switch-crash";
    case FaultKind::kSwitchRestart:
      return "switch-restart";
    case FaultKind::kDegradeLink:
      return "degrade-link";
    case FaultKind::kRestoreLink:
      return "restore-link";
  }
  return "unknown";
}

FaultPlan& FaultPlan::LinkDown(int link, Time at) {
  events_.push_back({at, FaultKind::kLinkDown, link, 0, Time::Zero()});
  return *this;
}

FaultPlan& FaultPlan::LinkUp(int link, Time at) {
  events_.push_back({at, FaultKind::kLinkUp, link, 0, Time::Zero()});
  return *this;
}

FaultPlan& FaultPlan::LinkFlap(int link, Time first_down, Time down_for, Time up_for,
                               int cycles) {
  DIBS_CHECK(cycles > 0) << "a flap needs at least one down/up cycle";
  DIBS_CHECK(down_for > Time::Zero()) << "flap down_for must be positive";
  Time t = first_down;
  for (int c = 0; c < cycles; ++c) {
    LinkDown(link, t);
    LinkUp(link, t + down_for);
    t = t + down_for + up_for;
  }
  return *this;
}

FaultPlan& FaultPlan::SwitchCrash(int node, Time at) {
  events_.push_back({at, FaultKind::kSwitchCrash, node, 0, Time::Zero()});
  return *this;
}

FaultPlan& FaultPlan::SwitchRestart(int node, Time at) {
  events_.push_back({at, FaultKind::kSwitchRestart, node, 0, Time::Zero()});
  return *this;
}

FaultPlan& FaultPlan::DegradeLink(int link, Time at, double loss_probability,
                                  Time extra_jitter) {
  DIBS_CHECK(loss_probability >= 0.0 && loss_probability < 1.0)
      << "loss probability must be in [0, 1)";
  events_.push_back({at, FaultKind::kDegradeLink, link, loss_probability, extra_jitter});
  return *this;
}

FaultPlan& FaultPlan::RestoreLink(int link, Time at) {
  events_.push_back({at, FaultKind::kRestoreLink, link, 0, Time::Zero()});
  return *this;
}

std::vector<FaultEvent> FaultPlan::Sorted() const {
  std::vector<FaultEvent> sorted = events_;
  // Stable: equal timestamps keep insertion order, so plans are deterministic
  // down to tie-breaks.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return sorted;
}

int TorOf(const Topology& topo, HostId h) {
  DIBS_CHECK(h >= 0 && h < topo.num_hosts()) << "bad host id " << h;
  const int host_node = topo.host_node(h);
  const auto& ports = topo.ports(host_node);
  DIBS_CHECK(!ports.empty()) << "host " << h << " has no NIC link";
  return ports[0].neighbor;
}

std::vector<int> SwitchFacingLinks(const Topology& topo, int node) {
  std::vector<int> links;
  for (const PortRef& ref : topo.ports(node)) {
    if (IsSwitchKind(topo.node(ref.neighbor).kind)) {
      links.push_back(ref.link);
    }
  }
  return links;
}

}  // namespace dibs::fault
