#include "src/hw/netfpga.h"

#include <gtest/gtest.h>

#include <set>

namespace dibs {
namespace netfpga {
namespace {

TEST(BitOpsTest, LowestSetBit) {
  EXPECT_EQ(LowestSetBit(0b0001), 0);
  EXPECT_EQ(LowestSetBit(0b1000), 3);
  EXPECT_EQ(LowestSetBit(0b1010), 1);
}

TEST(BitOpsTest, CountPorts) {
  EXPECT_EQ(CountPorts(0), 0);
  EXPECT_EQ(CountPorts(0b1011), 3);
  EXPECT_EQ(CountPorts(0xFFFFFFFF), 32);
}

TEST(BitOpsTest, NthSetBit) {
  EXPECT_EQ(NthSetBit(0b1011, 0), 0);
  EXPECT_EQ(NthSetBit(0b1011, 1), 1);
  EXPECT_EQ(NthSetBit(0b1011, 2), 3);
  EXPECT_EQ(NthSetBit(0b10000000, 0), 7);
}

TEST(OutputPortLookupTest, ForwardsWhenDesiredAvailable) {
  OutputPortLookup lookup(/*switch_facing=*/0b1111'0000, /*num_ports=*/8);
  const LookupResult r = lookup.Decide(/*fib=*/0b0000'0100, /*available=*/0xFF);
  EXPECT_FALSE(r.drop);
  EXPECT_FALSE(r.detoured);
  EXPECT_EQ(r.port, 2);
}

TEST(OutputPortLookupTest, EcmpEntryPicksAnAvailableDesiredPort) {
  OutputPortLookup lookup(0b1111'0000, 8);
  // FIB offers ports 4..7; only 6 is available.
  const LookupResult r = lookup.Decide(0b1111'0000, 0b0100'0000);
  EXPECT_FALSE(r.drop);
  EXPECT_FALSE(r.detoured);
  EXPECT_EQ(r.port, 6);
}

TEST(OutputPortLookupTest, DetoursWhenDesiredFull) {
  OutputPortLookup lookup(/*switch_facing=*/0b1111'0000, 8);
  // Desired port 2 unavailable; switch ports 4..7 available.
  const LookupResult r = lookup.Decide(0b0000'0100, 0b1111'0000);
  EXPECT_FALSE(r.drop);
  EXPECT_TRUE(r.detoured);
  EXPECT_GE(r.port, 4);
  EXPECT_LE(r.port, 7);
}

TEST(OutputPortLookupTest, NeverDetoursToHostPorts) {
  OutputPortLookup lookup(/*switch_facing=*/0b1100'0000, 8);
  for (int i = 0; i < 200; ++i) {
    const LookupResult r = lookup.Decide(0b0000'0001, 0b1111'1110);
    ASSERT_FALSE(r.drop);
    ASSERT_TRUE(r.detoured);
    EXPECT_GE(r.port, 6);  // only 6,7 are switch-facing
  }
}

TEST(OutputPortLookupTest, DropsWhenEverythingFull) {
  OutputPortLookup lookup(0b1111'0000, 8);
  const LookupResult r = lookup.Decide(0b0000'0100, 0);
  EXPECT_TRUE(r.drop);
}

TEST(OutputPortLookupTest, DropsWhenOnlyHostPortsAvailable) {
  OutputPortLookup lookup(/*switch_facing=*/0b1111'0000, 8);
  const LookupResult r = lookup.Decide(0b0001'0000, 0b0000'1111);
  EXPECT_TRUE(r.drop);
}

TEST(OutputPortLookupTest, DetourSpreadsAcrossCandidates) {
  OutputPortLookup lookup(0b1111'0000, 8);
  std::set<uint8_t> seen;
  for (int i = 0; i < 500; ++i) {
    const LookupResult r = lookup.Decide(0b0000'0001, 0b1111'0000);
    ASSERT_TRUE(r.detoured);
    seen.insert(r.port);
  }
  EXPECT_EQ(seen.size(), 4u);  // all of ports 4..7 get used
}

TEST(OutputPortLookupTest, LfsrAdvancesOnlyOnDetours) {
  OutputPortLookup lookup(0b1111'0000, 8);
  const uint16_t before = lookup.lfsr_state();
  lookup.Decide(0b0000'0001, 0b0000'0001);  // plain forward
  EXPECT_EQ(lookup.lfsr_state(), before);
  lookup.Decide(0b0000'0001, 0b1111'0000);  // detour
  EXPECT_NE(lookup.lfsr_state(), before);
}

TEST(OutputPortLookupTest, LfsrIsMaximalLengthIsh) {
  // The 16-bit LFSR must not get stuck in a short cycle from our seed.
  OutputPortLookup lookup(0b1111'0000, 8, /*lfsr_seed=*/0xACE1);
  std::set<uint16_t> states;
  for (int i = 0; i < 10000; ++i) {
    lookup.Decide(0b0000'0001, 0b1111'0000);
    states.insert(lookup.lfsr_state());
  }
  EXPECT_GT(states.size(), 9000u);
}

TEST(OutputPortLookupTest, WithoutDibsDropsOnFullDesired) {
  OutputPortLookup lookup(0b1111'0000, 8);
  const LookupResult r = lookup.DecideWithoutDibs(0b0000'0100, 0b1111'0000);
  EXPECT_TRUE(r.drop);
  const LookupResult ok = lookup.DecideWithoutDibs(0b0000'0100, 0b0000'0100);
  EXPECT_FALSE(ok.drop);
  EXPECT_EQ(ok.port, 2);
}

// The model against §2's rule, restated here, on randomized cases: forward
// iff a desired port has room; otherwise detour iff an available
// switch-facing non-desired port exists; otherwise drop.
TEST(OutputPortLookupTest, MatchesReferenceSemanticsOnRandomCases) {
  OutputPortLookup lookup(/*switch_facing=*/0b1111'1100, 8);
  uint32_t state = 12345;
  auto next = [&state] {
    state = state * 1664525 + 1013904223;
    return state;
  };
  for (int i = 0; i < 5000; ++i) {
    const PortBitmap fib = next() & 0xFF;
    const PortBitmap available = next() & 0xFF;
    if (fib == 0) {
      continue;
    }
    const LookupResult r = lookup.Decide(fib, available);
    const PortBitmap usable = fib & available;
    const PortBitmap detourable = available & 0b1111'1100 & ~fib;
    if (usable != 0) {
      EXPECT_FALSE(r.drop);
      EXPECT_FALSE(r.detoured);
      EXPECT_TRUE(usable & (1u << r.port));
    } else if (detourable != 0) {
      EXPECT_FALSE(r.drop);
      EXPECT_TRUE(r.detoured);
      EXPECT_TRUE(detourable & (1u << r.port));
    } else {
      EXPECT_TRUE(r.drop);
    }
  }
}

}  // namespace
}  // namespace netfpga
}  // namespace dibs
