// Topology description: an undirected multigraph of hosts and switches with
// per-link rate and propagation delay. Builders for the concrete topologies
// live in builders.h; routing (ECMP FIB computation) lives in routing.h.
//
// Node ids index into nodes(); a node's "ports" are its incident links in
// adjacency order, which is the port numbering the device layer uses too.

#ifndef SRC_TOPO_TOPOLOGY_H_
#define SRC_TOPO_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/time.h"
#include "src/util/logging.h"

namespace dibs {

enum class NodeKind : uint8_t {
  kHost = 0,
  kEdge = 1,         // top-of-rack switch
  kAggregation = 2,  // pod aggregation switch
  kCore = 3,         // core/spine switch
  kSwitch = 4,       // generic switch (linear/jellyfish topologies)
};

inline bool IsSwitchKind(NodeKind k) { return k != NodeKind::kHost; }

struct TopoNode {
  int id = -1;
  NodeKind kind = NodeKind::kSwitch;
  int pod = -1;               // fat-tree pod index, -1 elsewhere
  HostId host_id = kInvalidHost;  // dense host index, only for kHost nodes
  std::string name;
};

struct TopoLink {
  int node_a = -1;
  int node_b = -1;
  int64_t rate_bps = 0;
  Time delay;
};

// One entry in a node's adjacency list: the neighbor and the connecting link.
struct PortRef {
  int neighbor = -1;
  int link = -1;
};

class Topology {
 public:
  int AddNode(NodeKind kind, std::string name, int pod = -1);

  // Adds a host node and assigns it the next dense HostId.
  int AddHost(std::string name, int pod = -1);

  // Adds a bidirectional link. Returns the link index.
  int AddLink(int a, int b, int64_t rate_bps, Time delay);

  const std::vector<TopoNode>& nodes() const { return nodes_; }
  const std::vector<TopoLink>& links() const { return links_; }
  const TopoNode& node(int id) const { return nodes_[static_cast<size_t>(id)]; }
  const TopoLink& link(int id) const { return links_[static_cast<size_t>(id)]; }

  // A node's ports, in port-number order.
  const std::vector<PortRef>& ports(int node) const { return adj_[static_cast<size_t>(node)]; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_links() const { return static_cast<int>(links_.size()); }
  int num_hosts() const { return static_cast<int>(host_nodes_.size()); }
  int num_switches() const { return num_nodes() - num_hosts(); }

  // Node id of the host with the given dense HostId.
  int host_node(HostId h) const { return host_nodes_[static_cast<size_t>(h)]; }

  // The other endpoint of `link` as seen from `node`.
  int Peer(int link, int node) const {
    const TopoLink& l = links_[static_cast<size_t>(link)];
    DIBS_DCHECK(l.node_a == node || l.node_b == node);
    return l.node_a == node ? l.node_b : l.node_a;
  }

  // Hop distances from `from` to every node (-1 if unreachable). Unweighted BFS.
  std::vector<int> BfsDistances(int from) const;

  // Longest shortest-path distance between any two hosts.
  int HostDiameter() const;

  // Switch node ids within `radius` hops of `center` in the switch-only
  // subgraph (excludes `center` itself). Used by FabricMonitor (Figure 5).
  std::vector<int> SwitchNeighborhood(int center, int radius) const;

 private:
  std::vector<TopoNode> nodes_;
  std::vector<TopoLink> links_;
  std::vector<std::vector<PortRef>> adj_;
  std::vector<int> host_nodes_;  // HostId -> node id
};

}  // namespace dibs

#endif  // SRC_TOPO_TOPOLOGY_H_
