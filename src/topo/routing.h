// Forwarding tables (FIBs) with equal-cost multi-path next hops.
//
// Per §3 the paper assumes FIB-based forwarding (computed centrally or by
// OSPF/ISIS) with flow-level ECMP among shortest paths, and no spanning-tree.
// We compute, for every (node, destination-host) pair, the set of ports that
// lie on shortest paths — a packet's outgoing port is then chosen by hashing
// its flow id over that set. Hosts never forward transit traffic, so BFS
// refuses to expand through host nodes.

#ifndef SRC_TOPO_ROUTING_H_
#define SRC_TOPO_ROUTING_H_

#include <cstdint>
#include <vector>

#include "src/net/packet.h"
#include "src/topo/topology.h"

namespace dibs {

class Fib {
 public:
  // Computes shortest-path ECMP tables for every node toward every host.
  static Fib Compute(const Topology& topo);

  // Live ports of `node` on shortest paths toward host `dst`: the pristine
  // shortest-path set minus any port currently masked by SetPortState (link
  // or switch fault). Empty when the destination is unreachable in the
  // pristine topology OR when every next-hop link is dead — callers
  // distinguish the two via AllNextHopPorts.
  const std::vector<uint16_t>& NextHopPorts(int node, HostId dst) const {
    return live_[static_cast<size_t>(node)][static_cast<size_t>(dst)];
  }

  // The pristine (fault-free) shortest-path port set.
  const std::vector<uint16_t>& AllNextHopPorts(int node, HostId dst) const {
    return table_[static_cast<size_t>(node)][static_cast<size_t>(dst)];
  }

  // Fault model hook (src/fault via Network): masks or restores one port of
  // `node` in every destination's live next-hop set. Idempotent; restoring
  // re-adds the port in pristine (deterministic) order. ECMP re-picks among
  // the live set, so flows re-hash onto surviving paths immediately.
  void SetPortState(int node, uint16_t port, bool up);

  // Hop count from `node` to host `dst` (-1 if unreachable).
  int Distance(int node, HostId dst) const {
    return dist_[static_cast<size_t>(node)][static_cast<size_t>(dst)];
  }

  // Deterministic ECMP pick: hashes (flow, node) over the next-hop set so a
  // flow takes one consistent path but different switches decorrelate.
  uint16_t EcmpPort(int node, HostId dst, FlowId flow) const;

  int num_nodes() const { return static_cast<int>(table_.size()); }

 private:
  // Rebuilds live_[node] from table_[node] and port_up_[node].
  void RebuildLiveEntries(int node);

  // table_[node][dst] = pristine ports on shortest paths; live_ is the same
  // minus masked ports; dist_[node][dst] = hops; port_up_[node][port] = mask.
  std::vector<std::vector<std::vector<uint16_t>>> table_;
  std::vector<std::vector<std::vector<uint16_t>>> live_;
  std::vector<std::vector<bool>> port_up_;
  std::vector<std::vector<int>> dist_;
};

}  // namespace dibs

#endif  // SRC_TOPO_ROUTING_H_
