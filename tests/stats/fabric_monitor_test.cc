#include "src/stats/fabric_monitor.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/device/host_node.h"
#include "src/topo/builders.h"

namespace dibs {
namespace {

void Blast(Network& net, HostId src, HostId dst, int packets, FlowId flow = 1) {
  for (int i = 0; i < packets; ++i) {
    Packet p;
    p.uid = net.NextPacketUid();
    p.src = src;
    p.dst = dst;
    p.size_bytes = 1500;
    p.ttl = 255;
    p.flow = flow;
    net.host(src).Send(std::move(p));
  }
}

TEST(FabricMonitorTest, IdleNetworkHasNoHotLinks) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  FabricMonitor monitor(&net, Time::Millis(1));
  sim.RunUntil(Time::Millis(10));
  monitor.Finish();
  // No event ever fired: Finish() takes all ten samples.
  ASSERT_EQ(monitor.hot_fractions().size(), 10u);
  for (double f : monitor.hot_fractions()) {
    EXPECT_EQ(f, 0.0);
  }
}

TEST(FabricMonitorTest, SaturatedLinkIsHot) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  FabricMonitor monitor(&net, Time::Millis(1));
  // 1000 packets back-to-back saturate host0 -> edge for 12ms.
  Blast(net, 0, 5, 1000);
  sim.RunUntil(Time::Millis(4));
  monitor.Finish();
  bool any_hot_sample = false;
  for (double f : monitor.hot_fractions()) {
    if (f > 0.0) {
      any_hot_sample = true;
    }
    // Only a handful of the 22 directed links carry this one path.
    EXPECT_LT(f, 0.5);
  }
  EXPECT_TRUE(any_hot_sample);
}

TEST(FabricMonitorTest, RelativeHotFractionsBounded) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  FabricMonitor monitor(&net, Time::Millis(1));
  Blast(net, 0, 5, 200);
  sim.RunUntil(Time::Millis(5));
  monitor.Finish();
  ASSERT_FALSE(monitor.relative_hot_fractions().empty());
  for (double f : monitor.relative_hot_fractions()) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

// A burst that starts exactly on a sample instant belongs to the window that
// opens there, whether it was scheduled before or after the monitor was
// built: a sample reflects only transmissions strictly before its instant.
TEST(FabricMonitorTest, BurstOnASampleInstantCountsInTheWindowItOpens) {
  for (const bool scheduled_first : {true, false}) {
    SCOPED_TRACE(scheduled_first ? "burst scheduled before the monitor was built"
                                 : "burst scheduled after the monitor was built");
    Simulator sim;
    Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
    const auto burst = [&net] { Blast(net, 0, 5, 200); };
    if (scheduled_first) {
      sim.ScheduleAt(Time::Millis(1), burst);
    }
    FabricMonitor monitor(&net, Time::Millis(1));
    if (!scheduled_first) {
      sim.ScheduleAt(Time::Millis(1), burst);
    }
    sim.RunUntil(Time::Millis(3));
    monitor.Finish();
    ASSERT_EQ(monitor.relative_hot_fractions().size(), 3u);
    // Nothing was sent in [0, 1ms), so no link counts as hot at 1ms.
    EXPECT_EQ(monitor.relative_hot_fractions()[0], 0.0);
    EXPECT_EQ(monitor.hot_fractions()[0], 0.0);
    // The burst saturates host0's uplink in [1ms, 2ms).
    EXPECT_GT(monitor.hot_fractions()[1], 0.0);
  }
}

// The depth half of the same rule: a sample due on the instant of a switch
// enqueue reads the queue as it was before that enqueue.
TEST(FabricMonitorTest, SampleOnAnEnqueueInstantReadsTheDepthBeforeIt) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  const Port& nic = net.host(0).nic();
  // Host 0's only packet is enqueued at its edge switch one serialization
  // plus one propagation delay after it is sent.
  const Time arrival = SerializationDelay(1500, nic.rate_bps()) + nic.prop_delay();
  FabricMonitor monitor(&net, arrival, {nic.peer()->id()});
  Blast(net, 0, 5, 1);
  sim.RunUntil(arrival);
  monitor.Finish();
  ASSERT_EQ(monitor.snapshots().size(), 1u);
  for (size_t depth : monitor.snapshots()[0].queue_lengths[0]) {
    EXPECT_EQ(depth, 0u);
  }
}

TEST(FabricMonitorTest, QuietNetworkReportsNoCongestion) {
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  FabricMonitor monitor(&net, Time::Millis(1));
  sim.RunUntil(Time::Millis(5));
  monitor.Finish();
  EXPECT_TRUE(monitor.one_hop_free_fractions().empty());
  EXPECT_TRUE(monitor.two_hop_free_fractions().empty());
  EXPECT_FALSE(monitor.hot_fractions().empty());
}

TEST(FabricMonitorTest, IncastCongestionYieldsNeighborSamples) {
  NetworkConfig cfg;
  cfg.switch_buffer_packets = 20;
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), cfg);
  FabricMonitor monitor(&net, Time::Micros(100));
  for (HostId src = 0; src < 5; ++src) {
    Blast(net, src, 5, 60, /*flow=*/static_cast<FlowId>(src + 1));
  }
  sim.RunUntil(Time::Millis(5));
  monitor.Finish();
  ASSERT_FALSE(monitor.one_hop_free_fractions().empty());
  ASSERT_EQ(monitor.one_hop_free_fractions().size(), monitor.two_hop_free_fractions().size());
  for (size_t i = 0; i < monitor.one_hop_free_fractions().size(); ++i) {
    const double one = monitor.one_hop_free_fractions()[i];
    const double two = monitor.two_hop_free_fractions()[i];
    EXPECT_GE(one, 0.0);
    EXPECT_LE(one, 1.0);
    EXPECT_GE(two, 0.0);
    EXPECT_LE(two, 1.0);
  }
  // The paper's key observation (Fig 5): even near congestion, most
  // neighboring buffer space is free.
  double min_two_hop = 1.0;
  for (double f : monitor.two_hop_free_fractions()) {
    min_two_hop = std::min(min_two_hop, f);
  }
  EXPECT_GT(min_two_hop, 0.3);
}

TEST(FabricMonitorTest, SnapshotsCaptureQueueLengths) {
  NetworkConfig cfg;
  cfg.switch_buffer_packets = 50;
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), cfg);
  // Snapshot host 5's edge switch (built last) plus an aggregation switch.
  FabricMonitor monitor(&net, Time::Micros(200), {net.switch_ids()[4], net.switch_ids()[0]});
  // Two racks converge on host 5: its edge downlink queue must build.
  Blast(net, 0, 5, 100, /*flow=*/1);
  Blast(net, 2, 5, 100, /*flow=*/2);
  sim.RunUntil(Time::Millis(2));
  monitor.Finish();
  ASSERT_EQ(monitor.snapshots().size(), 10u);
  bool any_nonzero = false;
  for (const auto& snap : monitor.snapshots()) {
    ASSERT_EQ(snap.queue_lengths.size(), 2u);
    for (const auto& per_port : snap.queue_lengths) {
      for (size_t q : per_port) {
        any_nonzero |= q > 0;
      }
    }
  }
  EXPECT_TRUE(any_nonzero);
}

}  // namespace
}  // namespace dibs
