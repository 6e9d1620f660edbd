// FaultPlan tests: fluent builders append the right events, LinkFlap expands
// into down/up cycles, Sorted() orders by (time, insertion) stably, and the
// topology targeting helpers (TorOf / SwitchFacingLinks, and
// Topology::SwitchNeighborhood at radius 1) resolve fault targets from a
// Topology.

#include "src/fault/fault_plan.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/topo/builders.h"
#include "src/topo/topology.h"

namespace dibs::fault {
namespace {

TEST(FaultPlanTest, BuildersAppendTypedEvents) {
  FaultPlan plan;
  plan.LinkDown(3, Time::Millis(10))
      .LinkUp(3, Time::Millis(20))
      .SwitchCrash(7, Time::Millis(30))
      .SwitchRestart(7, Time::Millis(40))
      .DegradeLink(5, Time::Millis(50), 0.25, Time::Micros(10))
      .RestoreLink(5, Time::Millis(60));
  ASSERT_EQ(plan.size(), 6u);
  const std::vector<FaultEvent>& e = plan.events();
  EXPECT_EQ(e[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(e[0].target, 3);
  EXPECT_EQ(e[1].kind, FaultKind::kLinkUp);
  EXPECT_EQ(e[2].kind, FaultKind::kSwitchCrash);
  EXPECT_EQ(e[2].target, 7);
  EXPECT_EQ(e[3].kind, FaultKind::kSwitchRestart);
  EXPECT_EQ(e[4].kind, FaultKind::kDegradeLink);
  EXPECT_DOUBLE_EQ(e[4].loss_probability, 0.25);
  EXPECT_EQ(e[4].extra_jitter, Time::Micros(10));
  EXPECT_EQ(e[5].kind, FaultKind::kRestoreLink);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanTest, LinkFlapExpandsIntoDownUpCycles) {
  FaultPlan plan;
  plan.LinkFlap(/*link=*/2, /*first_down=*/Time::Millis(10), /*down_for=*/Time::Millis(5),
                /*up_for=*/Time::Millis(3), /*cycles=*/2);
  ASSERT_EQ(plan.size(), 4u);
  const std::vector<FaultEvent>& e = plan.events();
  // down@10, up@15, down@18, up@23.
  EXPECT_EQ(e[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(e[0].at, Time::Millis(10));
  EXPECT_EQ(e[1].kind, FaultKind::kLinkUp);
  EXPECT_EQ(e[1].at, Time::Millis(15));
  EXPECT_EQ(e[2].kind, FaultKind::kLinkDown);
  EXPECT_EQ(e[2].at, Time::Millis(18));
  EXPECT_EQ(e[3].kind, FaultKind::kLinkUp);
  EXPECT_EQ(e[3].at, Time::Millis(23));
  for (const FaultEvent& ev : e) {
    EXPECT_EQ(ev.target, 2);
  }
}

TEST(FaultPlanTest, SortedOrdersByTimeThenInsertion) {
  FaultPlan plan;
  plan.LinkDown(9, Time::Millis(30))
      .SwitchCrash(1, Time::Millis(10))
      .LinkDown(8, Time::Millis(10))  // same time as the crash: stays after it
      .LinkUp(9, Time::Millis(20));
  const std::vector<FaultEvent> sorted = plan.Sorted();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].kind, FaultKind::kSwitchCrash);
  EXPECT_EQ(sorted[1].kind, FaultKind::kLinkDown);
  EXPECT_EQ(sorted[1].target, 8);
  EXPECT_EQ(sorted[2].kind, FaultKind::kLinkUp);
  EXPECT_EQ(sorted[3].kind, FaultKind::kLinkDown);
  EXPECT_EQ(sorted[3].target, 9);
  // Sorted() is a view; the plan itself keeps insertion order.
  EXPECT_EQ(plan.events()[0].target, 9);
}

TEST(FaultPlanTest, KindNamesAreStable) {
  EXPECT_STREQ(FaultKindName(FaultKind::kLinkDown), "link-down");
  EXPECT_STREQ(FaultKindName(FaultKind::kLinkUp), "link-up");
  EXPECT_STREQ(FaultKindName(FaultKind::kSwitchCrash), "switch-crash");
  EXPECT_STREQ(FaultKindName(FaultKind::kSwitchRestart), "switch-restart");
  EXPECT_STREQ(FaultKindName(FaultKind::kDegradeLink), "degrade-link");
  EXPECT_STREQ(FaultKindName(FaultKind::kRestoreLink), "restore-link");
}

// A hot ToR with two hosts and two aggregation neighbors, one of them
// double-linked (parallel uplinks) to exercise deduplication.
struct TorFixture {
  TorFixture() {
    tor = topo.AddNode(NodeKind::kSwitch, "tor");
    agg0 = topo.AddNode(NodeKind::kSwitch, "agg0");
    agg1 = topo.AddNode(NodeKind::kSwitch, "agg1");
    for (int i = 0; i < 2; ++i) {
      const int h = topo.AddHost("h" + std::to_string(i));
      host_links.push_back(topo.AddLink(h, tor, kGbps, Time::Micros(1)));
    }
    up0 = topo.AddLink(tor, agg0, kGbps, Time::Micros(1));
    up1 = topo.AddLink(tor, agg1, kGbps, Time::Micros(1));
    up1b = topo.AddLink(tor, agg1, kGbps, Time::Micros(1));
  }

  Topology topo;
  int tor = -1;
  int agg0 = -1;
  int agg1 = -1;
  std::vector<int> host_links;
  int up0 = -1;
  int up1 = -1;
  int up1b = -1;
};

TEST(FaultTargetingTest, TorOfResolvesTheHostsSwitch) {
  TorFixture f;
  EXPECT_EQ(TorOf(f.topo, /*h=*/0), f.tor);
  EXPECT_EQ(TorOf(f.topo, /*h=*/1), f.tor);
}

TEST(FaultTargetingTest, SwitchFacingLinksSkipHostLinks) {
  TorFixture f;
  EXPECT_EQ(SwitchFacingLinks(f.topo, f.tor), (std::vector<int>{f.up0, f.up1, f.up1b}));
  // Aggs see only their uplinks back to the ToR.
  EXPECT_EQ(SwitchFacingLinks(f.topo, f.agg0), (std::vector<int>{f.up0}));
}

TEST(FaultTargetingTest, SwitchNeighborsDeduplicateParallelLinks) {
  TorFixture f;
  EXPECT_EQ(f.topo.SwitchNeighborhood(f.tor, 1), (std::vector<int>{f.agg0, f.agg1}));
  EXPECT_EQ(f.topo.SwitchNeighborhood(f.agg1, 1), (std::vector<int>{f.tor}));
}

}  // namespace
}  // namespace dibs::fault
