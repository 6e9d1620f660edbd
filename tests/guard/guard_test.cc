// Overload-guard contract: the per-switch circuit breaker trips, dwells,
// probes, and re-arms with hysteresis; the fabric's adaptive TTL clamp
// tightens with pressure; the collapse watchdog flags sustained goodput
// loss. Everything here is plain counters + sim clock, so these tests double
// as the determinism spec for the guard's state machine.

#include "src/guard/collapse_watchdog.h"
#include "src/guard/detour_guard.h"
#include "src/guard/guard_config.h"
#include "src/guard/guard_fabric.h"

#include <gtest/gtest.h>

#include <vector>

namespace dibs {
namespace {

// Every window below handles kPackets packets, enough to be judged.
constexpr uint64_t kPackets = 100;
static_assert(kPackets >= kGuardMinWindowPackets);

// One storm window (a detour attempt per packet) moves the EWMA from 0 to
// kGuardEwmaAlpha = 0.5, at or above the trip line.
constexpr uint64_t kStorm = kPackets;
static_assert(kGuardEwmaAlpha * 1.0 >= kGuardTripDetourRate);

// Tick time of window `n`, on the fabric's cadence.
Time WindowEnd(int n) { return kGuardWindow * n; }

// Feeds one window of traffic: `packets` handled, of which `detours` reach a
// detour decision (AdmitDetour), then ticks the guard at `now`.
GuardState FeedWindow(DetourGuard& guard, uint64_t packets, uint64_t detours,
                      Time now) {
  for (uint64_t i = 0; i < packets; ++i) {
    guard.NotePacket();
  }
  for (uint64_t i = 0; i < detours; ++i) {
    guard.AdmitDetour();
  }
  return guard.OnWindowTick(now);
}

// Trips the breaker at window 1 (EWMA 0.5), then lets one calm window pass
// after the dwell: the breaker half-closes with the EWMA at 0.25, inside the
// hysteresis band.
void TripThenProbe(DetourGuard& guard) {
  FeedWindow(guard, kPackets, kStorm, WindowEnd(1));
  ASSERT_EQ(guard.state(), GuardState::kSuppressed);
  FeedWindow(guard, kPackets, 0, WindowEnd(1) + kGuardSuppressHold);
  ASSERT_EQ(guard.state(), GuardState::kProbing);
  ASSERT_DOUBLE_EQ(guard.ewma_detour_rate(), 0.25);
}

TEST(DetourGuardTest, StaysArmedUnderTripRate) {
  DetourGuard guard(Time::Zero());
  // A steady rate of 0.30 converges the EWMA to 0.30, below the trip line.
  static_assert(0.30 < kGuardTripDetourRate);
  for (int w = 1; w <= 8; ++w) {
    FeedWindow(guard, kPackets, 30, WindowEnd(w));
    EXPECT_EQ(guard.state(), GuardState::kArmed);
  }
  EXPECT_LT(guard.ewma_detour_rate(), kGuardTripDetourRate);
}

TEST(DetourGuardTest, TripsOnDetourRateAndCountsTrip) {
  DetourGuard guard(Time::Zero());
  // EWMA 0 -> 0.5 >= 0.45: the tick reports the ARMED -> SUPPRESSED edge
  // that RunStats counts as a trip.
  EXPECT_EQ(FeedWindow(guard, kPackets, kStorm, WindowEnd(1)), GuardState::kArmed);
  EXPECT_DOUBLE_EQ(guard.ewma_detour_rate(), kGuardEwmaAlpha);
  EXPECT_EQ(guard.state(), GuardState::kSuppressed);
  EXPECT_FALSE(guard.AdmitDetour());
}

TEST(DetourGuardTest, IdleWindowNeitherTripsNorDecays) {
  DetourGuard guard(Time::Zero());
  FeedWindow(guard, kPackets, kStorm, WindowEnd(1));
  EXPECT_EQ(guard.state(), GuardState::kSuppressed);
  const double stormy = guard.ewma_detour_rate();
  // Windows below kGuardMinWindowPackets must not dilute the stored signal:
  // 3 packets with 0 detours is noise, not evidence the storm ended.
  static_assert(3 < kGuardMinWindowPackets);
  FeedWindow(guard, 3, 0, WindowEnd(2));
  EXPECT_DOUBLE_EQ(guard.ewma_detour_rate(), stormy);
}

TEST(DetourGuardTest, SuppressedHoldsUntilDwellThenProbes) {
  DetourGuard guard(Time::Zero());
  FeedWindow(guard, kPackets, kStorm, WindowEnd(1));
  ASSERT_EQ(guard.state(), GuardState::kSuppressed);
  // Half the dwell after the transition the breaker stays open, however
  // calm the window.
  FeedWindow(guard, kPackets, 0, WindowEnd(1) + kGuardSuppressHold / 2);
  EXPECT_EQ(guard.state(), GuardState::kSuppressed);
  FeedWindow(guard, kPackets, 0, WindowEnd(1) + kGuardSuppressHold);
  EXPECT_EQ(guard.state(), GuardState::kProbing);
}

TEST(DetourGuardTest, ProbingAdmitsOnlyProbeBudgetPerWindow) {
  DetourGuard guard(Time::Zero());
  TripThenProbe(guard);
  uint64_t admitted = 0;
  for (uint64_t i = 0; i < 2 * kGuardProbeBudget; ++i) {
    if (guard.AdmitDetour()) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, kGuardProbeBudget);
  // Budget refreshes at the next tick (a window too small to judge, so the
  // breaker stays PROBING).
  guard.OnWindowTick(WindowEnd(1) + kGuardSuppressHold + kGuardWindow);
  ASSERT_EQ(guard.state(), GuardState::kProbing);
  EXPECT_TRUE(guard.AdmitDetour());
}

TEST(DetourGuardTest, ProbingRearmsOnlyBelowRearmLine) {
  DetourGuard guard(Time::Zero());
  TripThenProbe(guard);
  const Time probing_since = WindowEnd(1) + kGuardSuppressHold;
  // Rate 0.30 moves the EWMA from 0.25 to 0.275, inside the hysteresis band
  // [0.20, 0.45): neither re-arm nor re-trip — PROBING holds.
  FeedWindow(guard, kPackets, 30, probing_since + kGuardWindow);
  EXPECT_DOUBLE_EQ(guard.ewma_detour_rate(), 0.275);
  EXPECT_GE(guard.ewma_detour_rate(), kGuardRearmDetourRate);
  EXPECT_EQ(guard.state(), GuardState::kProbing);
  // A calm window halves it to 0.1375 < 0.20: close the loop back to ARMED.
  FeedWindow(guard, kPackets, 0, probing_since + kGuardWindow * 2);
  EXPECT_LT(guard.ewma_detour_rate(), kGuardRearmDetourRate);
  EXPECT_EQ(guard.state(), GuardState::kArmed);
}

TEST(DetourGuardTest, ProbingReopensWhenPressureReturns) {
  DetourGuard guard(Time::Zero());
  TripThenProbe(guard);
  // Storm still raging: EWMA 0.25 -> 0.625. Re-entering SUPPRESSED from
  // PROBING is not a fresh trip: the edge RunStats sees starts at
  // PROBING, not ARMED.
  EXPECT_EQ(FeedWindow(guard, kPackets, kStorm,
                       WindowEnd(1) + kGuardSuppressHold + kGuardWindow),
            GuardState::kProbing);
  EXPECT_EQ(guard.state(), GuardState::kSuppressed);
}

TEST(DetourGuardTest, SuppressedAttemptsStillFeedTheDemandSignal) {
  DetourGuard guard(Time::Zero());
  FeedWindow(guard, kPackets, kStorm, WindowEnd(1));
  ASSERT_EQ(guard.state(), GuardState::kSuppressed);
  // Demand persists while the breaker is open: denied attempts count, so
  // the EWMA keeps climbing (0.5 -> 0.75) and PROBING will see the truth.
  FeedWindow(guard, kPackets, kStorm, WindowEnd(2));
  EXPECT_DOUBLE_EQ(guard.ewma_detour_rate(), 0.75);
}

// ---- GuardFabric ----

// Feeds `node` one window's traffic through the fabric: `packets` handled
// and `attempts` detour decisions.
void Storm(GuardFabric& fabric, int node, uint64_t packets, uint64_t attempts) {
  for (uint64_t i = 0; i < packets; ++i) {
    fabric.NotePacket(node);
  }
  for (uint64_t i = 0; i < attempts; ++i) {
    fabric.AdmitDetour(node, 0);
  }
}

TEST(GuardFabricTest, TickWalksGuardsAndReportsTransitions) {
  Simulator sim;
  GuardFabric fabric(&sim, /*adaptive_ttl=*/false, {7, 3});
  std::vector<std::tuple<int, GuardState, GuardState>> seen;
  fabric.set_transition_callback([&](int node, GuardState from, GuardState to) {
    seen.emplace_back(node, from, to);
  });
  fabric.Start(WindowEnd(10));
  // Storm both switches for the first window.
  sim.Schedule(Time::Micros(100), [&] {
    for (int node : {3, 7}) {
      Storm(fabric, node, kPackets, kStorm);
    }
  });
  sim.RunUntil(WindowEnd(1));
  ASSERT_EQ(seen.size(), 2u);
  // Node-id order: node 3 before node 7, regardless of ctor order.
  EXPECT_EQ(std::get<0>(seen[0]), 3);
  EXPECT_EQ(std::get<0>(seen[1]), 7);
  EXPECT_EQ(std::get<1>(seen[0]), GuardState::kArmed);
  EXPECT_EQ(std::get<2>(seen[0]), GuardState::kSuppressed);
  EXPECT_EQ(fabric.AdmitDetour(3, 0), DropReason::kGuardSuppressed);
  EXPECT_EQ(fabric.AdmitDetour(7, 0), DropReason::kGuardSuppressed);
}

TEST(GuardFabricTest, SuppressedSwitchDeniesWhileOthersDetour) {
  Simulator sim;
  GuardFabric fabric(&sim, /*adaptive_ttl=*/false, {1, 2});
  fabric.Start(WindowEnd(10));
  sim.Schedule(Time::Micros(100), [&] {
    Storm(fabric, 1, kPackets, kStorm);  // only switch 1 storms
    Storm(fabric, 2, kPackets, 0);
  });
  sim.RunUntil(WindowEnd(1));
  EXPECT_EQ(fabric.AdmitDetour(1, 0), DropReason::kGuardSuppressed);
  EXPECT_EQ(fabric.AdmitDetour(2, 0), std::nullopt);
}

TEST(GuardFabricTest, BudgetUnlimitedWithoutAdaptiveTtl) {
  Simulator sim;
  GuardFabric fabric(&sim, /*adaptive_ttl=*/false, {1});
  EXPECT_EQ(fabric.DetourBudget(), UINT16_MAX);
  EXPECT_EQ(fabric.AdmitDetour(1, 60000), std::nullopt);
}

// The adaptive-TTL tests raise fabric pressure through NoteDetour, which
// the per-switch breaker never sees, so only the clamp acts.
void Pressure(GuardFabric& fabric, uint64_t packets, uint64_t detours) {
  for (uint64_t i = 0; i < packets; ++i) {
    fabric.NotePacket(1);
  }
  for (uint64_t i = 0; i < detours; ++i) {
    fabric.NoteDetour();
  }
}

TEST(GuardFabricTest, AdaptiveTtlTightensBudgetWithPressure) {
  Simulator sim;
  GuardFabric fabric(&sim, /*adaptive_ttl=*/true, {1});
  EXPECT_EQ(fabric.DetourBudget(), kTtlBudgetMax);  // starts wide open

  fabric.Start(WindowEnd(20));
  // Two detours per packet: pressure 0 -> 1.0 >= full, so after the tick
  // the budget is clamped to its minimum.
  static_assert(kGuardEwmaAlpha * 2.0 >= kTtlPressureFull);
  sim.Schedule(Time::Micros(100), [&] { Pressure(fabric, kPackets, 2 * kPackets); });
  sim.RunUntil(WindowEnd(1));
  EXPECT_DOUBLE_EQ(fabric.FabricPressure(), 1.0);
  EXPECT_EQ(fabric.DetourBudget(), kTtlBudgetMin);

  // Over-budget packet dies as guard-ttl-clamped; the clamp outranks the
  // breaker and the probe budget.
  EXPECT_EQ(fabric.AdmitDetour(1, kTtlBudgetMin), DropReason::kGuardTtlClamped);
  EXPECT_EQ(fabric.AdmitDetour(1, kTtlBudgetMin - 1), std::nullopt);

  // Pressure decays once the storm ends (idle fabric windows don't update;
  // feed calm traffic instead), and the budget walks back up the lerp:
  // three calm windows take the pressure to 0.125, below the onset.
  for (int w = 2; w <= 4; ++w) {
    sim.Schedule(Time::Micros(100), [&] { Pressure(fabric, kPackets, 0); });
    sim.RunUntil(WindowEnd(w));
  }
  EXPECT_LT(fabric.FabricPressure(), kTtlPressureOnset);
  EXPECT_EQ(fabric.DetourBudget(), kTtlBudgetMax);
}

TEST(GuardFabricTest, MidBandPressureLerpsBetweenBudgetEndpoints) {
  Simulator sim;
  GuardFabric fabric(&sim, /*adaptive_ttl=*/true, {1});
  fabric.Start(WindowEnd(5));
  // Rate 0.80 gives pressure 0.40, 40% of the way through the band
  // [0.20, 0.70].
  sim.Schedule(Time::Micros(100), [&] { Pressure(fabric, kPackets, 80); });
  sim.RunUntil(WindowEnd(1));
  EXPECT_DOUBLE_EQ(fabric.FabricPressure(), 0.40);
  EXPECT_EQ(fabric.DetourBudget(), 44);  // 64 - 0.4 * (64 - 16) = 44.8
}

// ---- CollapseWatchdog ----

// Schedules `per_window[w]` completions in the middle of watchdog window w.
void Deliver(Simulator& sim, uint64_t& delivered, const std::vector<uint64_t>& per_window) {
  for (size_t w = 0; w < per_window.size(); ++w) {
    sim.Schedule(kCollapseWindow * static_cast<int64_t>(w) + kCollapseWindow / 2,
                 [&delivered, n = per_window[w]] { delivered += n; });
  }
}

// `healthy` windows at 1000 completions, then `sick` windows at `low`.
std::vector<uint64_t> Plan(int healthy, int sick, uint64_t low) {
  std::vector<uint64_t> plan(static_cast<size_t>(healthy), 1000);
  plan.insert(plan.end(), static_cast<size_t>(sick), low);
  return plan;
}

TEST(CollapseWatchdogTest, DetectsSustainedCollapseAndRecordsOnset) {
  Simulator sim;
  uint64_t delivered = 0;
  CollapseWatchdog dog(&sim, [&] { return delivered; });
  dog.Start(kCollapseWindow * 20);
  // Healthy for 5 windows (1000/window), then collapse to 100/window, below
  // kCollapseFraction of the peak.
  static_assert(100 < kCollapseFraction * 1000);
  Deliver(sim, delivered, Plan(5, 15, 100));
  sim.Run();
  EXPECT_TRUE(dog.collapse_detected());
  EXPECT_EQ(dog.peak_window_packets(), 1000u);
  // The streak starts at the sample ending window 6 and completes
  // kCollapseConsecutive samples in.
  EXPECT_DOUBLE_EQ(dog.collapse_onset_ms(),
                   (kCollapseWindow * (5 + kCollapseConsecutive)).ToMillis());
}

TEST(CollapseWatchdogTest, HealthyRunNeverFlags) {
  Simulator sim;
  uint64_t delivered = 0;
  CollapseWatchdog dog(&sim, [&] { return delivered; });
  dog.Start(kCollapseWindow * 10);
  Deliver(sim, delivered, Plan(10, 0, 0));
  sim.Run();
  EXPECT_FALSE(dog.collapse_detected());
  EXPECT_EQ(dog.windows_sampled(), 10u);
}

TEST(CollapseWatchdogTest, NoPeakMeansNoJudgment) {
  Simulator sim;
  uint64_t delivered = 0;
  CollapseWatchdog dog(&sim, [&] { return delivered; });
  dog.Start(kCollapseWindow * 10);
  // Trickle traffic that never reaches kCollapseMinPeak establishes no
  // peak, so its fall to a tenth is starvation, not collapse.
  std::vector<uint64_t> plan(10, (kCollapseMinPeak - 1) / 10);
  plan[0] = plan[1] = kCollapseMinPeak - 1;
  Deliver(sim, delivered, plan);
  sim.Run();
  EXPECT_EQ(dog.peak_window_packets(), kCollapseMinPeak - 1);
  EXPECT_FALSE(dog.collapse_detected());
}

TEST(CollapseWatchdogTest, BriefDipBelowStreakDoesNotFlag) {
  Simulator sim;
  uint64_t delivered = 0;
  CollapseWatchdog dog(&sim, [&] { return delivered; });
  dog.Start(kCollapseWindow * 10);
  // A dip one window short of the streak, then recovery: the streak resets.
  std::vector<uint64_t> plan = Plan(2, kCollapseConsecutive - 1, 100);
  const std::vector<uint64_t> recovery = Plan(10 - static_cast<int>(plan.size()), 0, 0);
  plan.insert(plan.end(), recovery.begin(), recovery.end());
  Deliver(sim, delivered, plan);
  sim.Run();
  EXPECT_FALSE(dog.collapse_detected());
}

// The whole guard is counter + clock arithmetic; identical inputs must give
// identical trajectories (the unit-level face of the bit-identical contract).
TEST(GuardDeterminismTest, IdenticalFeedsGiveIdenticalTrajectories) {
  auto run = [] {
    DetourGuard guard(Time::Zero());
    std::vector<GuardState> states;
    const uint64_t detours[] = {100, 0, 0, 30, 5, 60, 0, 0, 0, 2};
    for (int w = 0; w < 10; ++w) {
      FeedWindow(guard, kPackets, detours[w], WindowEnd(w + 1));
      states.push_back(guard.state());
    }
    return states;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dibs
