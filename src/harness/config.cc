#include "src/harness/config.h"

#include "src/util/logging.h"

namespace dibs {

ExperimentConfig DctcpConfig() {
  ExperimentConfig c;
  c.label = "DCTCP";
  c.net.detour_policy = "none";
  c.tcp = TcpConfig::DctcpDefault();
  c.transport = TransportKind::kDctcp;
  return c;
}

ExperimentConfig DibsConfig() {
  ExperimentConfig c;
  c.label = "DCTCP+DIBS";
  c.net.detour_policy = "random";
  c.tcp = TcpConfig::DibsDefault();
  c.transport = TransportKind::kDctcp;
  return c;
}

ExperimentConfig DibsGuardConfig() {
  ExperimentConfig c = DibsConfig();
  c.label = "DCTCP+DIBS+guard";
  c.net.guard.enabled = true;
  c.net.guard.adaptive_ttl = true;
  c.net.guard.watchdog = true;
  return c;
}

ExperimentConfig InfiniteBufferConfig() {
  ExperimentConfig c;
  c.label = "DCTCP w/ inf";
  c.net.detour_policy = "none";
  c.net.switch_buffer_packets = 0;  // unbounded
  c.tcp = TcpConfig::DctcpDefault();
  c.transport = TransportKind::kDctcp;
  return c;
}

ExperimentConfig PfabricExperimentConfig() {
  ExperimentConfig c;
  c.label = "pFabric";
  c.net.detour_policy = "none";
  c.net.pfabric_queues = true;
  c.net.ecn_threshold_packets = 0;
  c.transport = TransportKind::kPfabric;
  return c;
}

Topology BuildTopology(const ExperimentConfig& config) {
  switch (config.topology) {
    case TopologyKind::kFatTree: {
      FatTreeOptions opts;
      opts.k = config.fat_tree_k;
      opts.oversubscription = config.oversubscription;
      return BuildFatTree(opts);
    }
    case TopologyKind::kEmulabTestbed:
      return BuildEmulabTestbed();
    case TopologyKind::kLeafSpine:
      return BuildLeafSpine(LeafSpineOptions{});
    case TopologyKind::kLinear:
      return BuildLinear(/*num_switches=*/8, /*hosts_per_switch=*/2);
    case TopologyKind::kJellyFish: {
      JellyFishOptions opts;
      opts.seed = config.seed;
      return BuildJellyFish(opts);
    }
  }
  DIBS_LOG(kFatal) << "unknown topology kind";
  return Topology();
}

}  // namespace dibs
