// Overload-guard contract: the per-switch circuit breaker trips, dwells,
// probes, and re-arms with hysteresis; the fabric's adaptive TTL clamp
// tightens with pressure; the collapse watchdog flags (or, strict, aborts)
// sustained goodput loss. Everything here is plain counters + sim clock, so
// these tests double as the determinism spec for the guard's state machine.

#include "src/guard/collapse_watchdog.h"
#include "src/guard/detour_guard.h"
#include "src/guard/guard_config.h"
#include "src/guard/guard_fabric.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

namespace dibs {
namespace {

GuardConfig TestConfig() {
  GuardConfig g;
  g.enabled = true;
  g.window = Time::Millis(1);
  g.ewma_alpha = 1.0;  // no smoothing: window rate == EWMA, thresholds exact
  g.trip_detour_rate = 0.25;
  g.min_window_packets = 10;
  g.rearm_detour_rate = 0.10;
  g.suppress_hold = Time::Millis(2);
  g.probe_budget = 4;
  return g;
}

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

TEST(DetourGuardTest, StaysArmedUnderTripRate) {
  DetourGuard guard(TestConfig(), Time::Zero());
  for (int w = 1; w <= 5; ++w) {
    FeedWindow(guard, 100, 10, Time::Millis(w));  // rate 0.10 < trip 0.25
    EXPECT_EQ(guard.state(), GuardState::kArmed);
  }
}

TEST(DetourGuardTest, TripsOnDetourRateAndCountsTrip) {
  DetourGuard guard(TestConfig(), Time::Zero());
  // rate 0.40 >= 0.25: the tick reports the ARMED -> SUPPRESSED edge that
  // GuardRecorder counts as a trip.
  EXPECT_EQ(FeedWindow(guard, 100, 40, Time::Millis(1)), GuardState::kArmed);
  EXPECT_EQ(guard.state(), GuardState::kSuppressed);
  EXPECT_FALSE(guard.DetourEnabled());
  EXPECT_FALSE(guard.AdmitDetour());
}

TEST(DetourGuardTest, IdleWindowNeitherTripsNorDecays) {
  GuardConfig cfg = TestConfig();
  cfg.ewma_alpha = 0.5;
  DetourGuard guard(cfg, Time::Zero());
  FeedWindow(guard, 100, 80, Time::Millis(1));
  EXPECT_EQ(guard.state(), GuardState::kSuppressed);
  const double stormy = guard.ewma_detour_rate();
  // Windows below min_window_packets must not dilute the stored signal:
  // 3 packets with 0 detours is noise, not evidence the storm ended.
  FeedWindow(guard, 3, 0, Time::Millis(2));
  EXPECT_DOUBLE_EQ(guard.ewma_detour_rate(), stormy);
}

TEST(DetourGuardTest, SuppressedHoldsUntilDwellThenProbes) {
  DetourGuard guard(TestConfig(), Time::Zero());
  FeedWindow(guard, 100, 40, Time::Millis(1));
  ASSERT_EQ(guard.state(), GuardState::kSuppressed);
  // suppress_hold = 2ms from the transition at t=1ms: the t=2ms tick is
  // only 1ms in, so the breaker stays open.
  FeedWindow(guard, 100, 0, Time::Millis(2));
  EXPECT_EQ(guard.state(), GuardState::kSuppressed);
  FeedWindow(guard, 100, 0, Time::Millis(3));
  EXPECT_EQ(guard.state(), GuardState::kProbing);
}

TEST(DetourGuardTest, ProbingAdmitsOnlyProbeBudgetPerWindow) {
  DetourGuard guard(TestConfig(), Time::Zero());
  FeedWindow(guard, 100, 40, Time::Millis(1));
  FeedWindow(guard, 100, 0, Time::Millis(2));
  FeedWindow(guard, 100, 0, Time::Millis(3));
  ASSERT_EQ(guard.state(), GuardState::kProbing);
  EXPECT_TRUE(guard.DetourEnabled());  // cheap read: not suppressed
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (guard.AdmitDetour()) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 4);  // probe_budget
  // Budget refreshes at the next tick.
  guard.OnWindowTick(Time::Millis(4));
  if (guard.state() == GuardState::kProbing) {
    EXPECT_TRUE(guard.AdmitDetour());
  }
}

TEST(DetourGuardTest, ProbingRearmsOnlyBelowRearmLine) {
  DetourGuard guard(TestConfig(), Time::Zero());
  FeedWindow(guard, 100, 40, Time::Millis(1));
  FeedWindow(guard, 100, 0, Time::Millis(2));
  FeedWindow(guard, 100, 0, Time::Millis(3));
  ASSERT_EQ(guard.state(), GuardState::kProbing);
  // Rate 0.15 sits in the hysteresis band [0.10, 0.25): neither re-arm nor
  // re-trip — PROBING holds.
  FeedWindow(guard, 100, 15, Time::Millis(4));
  EXPECT_EQ(guard.state(), GuardState::kProbing);
  // Rate 0.05 < rearm 0.10: close the loop back to ARMED.
  FeedWindow(guard, 100, 5, Time::Millis(5));
  EXPECT_EQ(guard.state(), GuardState::kArmed);
}

TEST(DetourGuardTest, ProbingReopensWhenPressureReturns) {
  DetourGuard guard(TestConfig(), Time::Zero());
  FeedWindow(guard, 100, 40, Time::Millis(1));
  FeedWindow(guard, 100, 0, Time::Millis(2));
  FeedWindow(guard, 100, 0, Time::Millis(3));
  ASSERT_EQ(guard.state(), GuardState::kProbing);
  // Storm still raging. Re-entering SUPPRESSED from PROBING is not a fresh
  // trip: the edge GuardRecorder sees starts at PROBING, not ARMED.
  EXPECT_EQ(FeedWindow(guard, 100, 50, Time::Millis(4)), GuardState::kProbing);
  EXPECT_EQ(guard.state(), GuardState::kSuppressed);
}

TEST(DetourGuardTest, SuppressedAttemptsStillFeedTheDemandSignal) {
  GuardConfig cfg = TestConfig();
  cfg.ewma_alpha = 0.5;
  DetourGuard guard(cfg, Time::Zero());
  FeedWindow(guard, 100, 80, Time::Millis(1));
  ASSERT_EQ(guard.state(), GuardState::kSuppressed);
  // Demand persists while the breaker is open: denied attempts count, so
  // the EWMA stays high and PROBING will see the truth.
  const double before = guard.ewma_detour_rate();
  FeedWindow(guard, 100, 80, Time::Millis(2));
  EXPECT_GE(guard.ewma_detour_rate(), before * 0.99);
}

// ---- GuardFabric ----

TEST(GuardFabricTest, TickWalksGuardsAndReportsTransitions) {
  Simulator sim;
  GuardConfig cfg = TestConfig();
  GuardFabric fabric(&sim, cfg, {7, 3});
  std::vector<std::tuple<int, GuardState, GuardState>> seen;
  fabric.set_transition_callback([&](int node, GuardState from, GuardState to) {
    seen.emplace_back(node, from, to);
  });
  fabric.Start(Time::Millis(10));
  // Storm both switches for the first window.
  sim.Schedule(Time::Micros(100), [&] {
    for (int node : {3, 7}) {
      for (int i = 0; i < 100; ++i) {
        fabric.NotePacket(node);
      }
      for (int i = 0; i < 40; ++i) {
        fabric.AdmitDetour(node, 0);
      }
    }
  });
  sim.RunUntil(Time::Millis(1));
  ASSERT_EQ(seen.size(), 2u);
  // std::map iteration: node 3 before node 7, regardless of ctor order.
  EXPECT_EQ(std::get<0>(seen[0]), 3);
  EXPECT_EQ(std::get<0>(seen[1]), 7);
  EXPECT_EQ(std::get<1>(seen[0]), GuardState::kArmed);
  EXPECT_EQ(std::get<2>(seen[0]), GuardState::kSuppressed);
  EXPECT_FALSE(fabric.DetourEnabled(3));
  EXPECT_FALSE(fabric.DetourEnabled(7));
}

TEST(GuardFabricTest, SuppressedSwitchDeniesWhileOthersDetour) {
  Simulator sim;
  GuardFabric fabric(&sim, TestConfig(), {1, 2});
  fabric.Start(Time::Millis(10));
  sim.Schedule(Time::Micros(100), [&] {
    for (int i = 0; i < 100; ++i) {
      fabric.NotePacket(1);
      fabric.NotePacket(2);
    }
    for (int i = 0; i < 40; ++i) {
      fabric.AdmitDetour(1, 0);  // only switch 1 storms
    }
  });
  sim.RunUntil(Time::Millis(1));
  EXPECT_FALSE(fabric.DetourEnabled(1));
  EXPECT_TRUE(fabric.DetourEnabled(2));
  EXPECT_EQ(fabric.AdmitDetour(1, 0), DropReason::kGuardSuppressed);
  EXPECT_EQ(fabric.AdmitDetour(2, 0), std::nullopt);
}

TEST(GuardFabricTest, BudgetUnlimitedWithoutAdaptiveTtl) {
  Simulator sim;
  GuardFabric fabric(&sim, TestConfig(), {1});
  EXPECT_EQ(fabric.DetourBudget(), UINT16_MAX);
  EXPECT_EQ(fabric.AdmitDetour(1, 60000), std::nullopt);
}

TEST(GuardFabricTest, AdaptiveTtlTightensBudgetWithPressure) {
  Simulator sim;
  GuardConfig cfg = TestConfig();
  cfg.adaptive_ttl = true;
  cfg.ttl_budget_max = 64;
  cfg.ttl_budget_min = 8;
  cfg.ttl_pressure_onset = 0.05;
  cfg.ttl_pressure_full = 0.40;
  // Keep the breaker quiet so only the clamp acts.
  cfg.trip_detour_rate = 10.0;
  cfg.rearm_detour_rate = 9.0;
  GuardFabric fabric(&sim, cfg, {1});
  EXPECT_EQ(fabric.DetourBudget(), 64);  // starts wide open

  fabric.Start(Time::Millis(10));
  // Pressure 0.40 >= full: after the tick the budget is clamped to min.
  sim.Schedule(Time::Micros(100), [&] {
    for (int i = 0; i < 100; ++i) {
      fabric.NotePacket(1);
    }
    for (int i = 0; i < 40; ++i) {
      fabric.AdmitDetour(1, 0);
    }
  });
  sim.RunUntil(Time::Millis(1));
  EXPECT_EQ(fabric.DetourBudget(), 8);
  EXPECT_DOUBLE_EQ(fabric.FabricPressure(), 0.40);

  // Over-budget packet dies as guard-ttl-clamped; the clamp outranks the
  // breaker and the probe budget.
  EXPECT_EQ(fabric.AdmitDetour(1, 8), DropReason::kGuardTtlClamped);
  EXPECT_EQ(fabric.AdmitDetour(1, 7), std::nullopt);

  // Pressure decays once the storm ends (idle fabric windows don't update;
  // feed calm traffic instead), and the budget walks back up the lerp.
  for (int w = 2; w <= 12; ++w) {
    sim.Schedule(Time::Micros(100), [&] {
      for (int i = 0; i < 100; ++i) {
        fabric.NotePacket(1);
      }
    });
    sim.RunUntil(Time::Millis(w));
  }
  EXPECT_GT(fabric.DetourBudget(), 32);
}

TEST(GuardFabricTest, MidBandPressureLerpsBetweenBudgetEndpoints) {
  Simulator sim;
  GuardConfig cfg = TestConfig();
  cfg.ewma_alpha = 1.0;
  cfg.adaptive_ttl = true;
  cfg.ttl_budget_max = 64;
  cfg.ttl_budget_min = 8;
  cfg.ttl_pressure_onset = 0.0;
  cfg.ttl_pressure_full = 0.40;
  cfg.trip_detour_rate = 10.0;
  cfg.rearm_detour_rate = 9.0;
  GuardFabric fabric(&sim, cfg, {1});
  fabric.Start(Time::Millis(5));
  sim.Schedule(Time::Micros(100), [&] {
    for (int i = 0; i < 100; ++i) {
      fabric.NotePacket(1);
    }
    for (int i = 0; i < 20; ++i) {
      fabric.AdmitDetour(1, 0);  // pressure 0.20 = halfway to full
    }
  });
  sim.RunUntil(Time::Millis(1));
  EXPECT_EQ(fabric.DetourBudget(), 36);  // 64 - 0.5 * (64 - 8)
}

// ---- CollapseWatchdog ----

TEST(CollapseWatchdogTest, DetectsSustainedCollapseAndRecordsOnset) {
  Simulator sim;
  GuardConfig cfg;
  cfg.collapse_window = Time::Millis(1);
  cfg.collapse_fraction = 0.5;
  cfg.collapse_consecutive = 3;
  cfg.collapse_min_peak = 100;
  uint64_t delivered = 0;
  CollapseWatchdog dog(&sim, cfg, [&] { return delivered; });
  dog.Start(Time::Millis(20), /*strict=*/false);
  // Healthy for 5 windows (1000/window), then collapse to 100/window.
  for (int w = 0; w < 20; ++w) {
    sim.Schedule(Time::Micros(w * 1000 + 500),
                 [&, w] { delivered += w < 5 ? 1000 : 100; });
  }
  sim.Run();
  EXPECT_TRUE(dog.collapse_detected());
  EXPECT_EQ(dog.peak_window_packets(), 1000u);
  // Streak starts at window 6 (t=6ms) and completes at window 8 (t=8ms).
  EXPECT_DOUBLE_EQ(dog.collapse_onset_ms(), 8.0);
}

TEST(CollapseWatchdogTest, HealthyRunNeverFlags) {
  Simulator sim;
  GuardConfig cfg;
  cfg.collapse_window = Time::Millis(1);
  uint64_t delivered = 0;
  CollapseWatchdog dog(&sim, cfg, [&] { return delivered; });
  dog.Start(Time::Millis(10), /*strict=*/false);
  for (int w = 0; w < 10; ++w) {
    sim.Schedule(Time::Micros(w * 1000 + 500), [&] { delivered += 1000; });
  }
  sim.Run();
  EXPECT_FALSE(dog.collapse_detected());
  EXPECT_EQ(dog.windows_sampled(), 10u);
}

TEST(CollapseWatchdogTest, NoPeakMeansNoJudgment) {
  Simulator sim;
  GuardConfig cfg;
  cfg.collapse_window = Time::Millis(1);
  cfg.collapse_min_peak = 1000;
  uint64_t delivered = 0;
  CollapseWatchdog dog(&sim, cfg, [&] { return delivered; });
  dog.Start(Time::Millis(10), /*strict=*/false);
  // Trickle traffic never establishes a peak: starvation, not collapse.
  for (int w = 0; w < 10; ++w) {
    sim.Schedule(Time::Micros(w * 1000 + 500), [&] { delivered += 5; });
  }
  sim.Run();
  EXPECT_FALSE(dog.collapse_detected());
}

TEST(CollapseWatchdogTest, BriefDipBelowStreakDoesNotFlag) {
  Simulator sim;
  GuardConfig cfg;
  cfg.collapse_window = Time::Millis(1);
  cfg.collapse_consecutive = 3;
  cfg.collapse_min_peak = 100;
  uint64_t delivered = 0;
  CollapseWatchdog dog(&sim, cfg, [&] { return delivered; });
  dog.Start(Time::Millis(10), /*strict=*/false);
  // Two-window dip, then recovery: the streak resets before reaching 3.
  const uint64_t plan[] = {1000, 1000, 100, 100, 1000, 1000, 1000, 1000, 1000, 1000};
  for (int w = 0; w < 10; ++w) {
    sim.Schedule(Time::Micros(w * 1000 + 500), [&, w] { delivered += plan[w]; });
  }
  sim.Run();
  EXPECT_FALSE(dog.collapse_detected());
}

TEST(CollapseWatchdogTest, StrictModeThrowsTypedError) {
  Simulator sim;
  GuardConfig cfg;
  cfg.collapse_window = Time::Millis(1);
  cfg.collapse_consecutive = 2;
  cfg.collapse_min_peak = 100;
  uint64_t delivered = 0;
  CollapseWatchdog dog(&sim, cfg, [&] { return delivered; });
  dog.Start(Time::Millis(20), /*strict=*/true);
  for (int w = 0; w < 20; ++w) {
    sim.Schedule(Time::Micros(w * 1000 + 500),
                 [&, w] { delivered += w < 3 ? 1000 : 10; });
  }
  EXPECT_THROW(sim.Run(), CollapseError);
  EXPECT_TRUE(dog.collapse_detected());
}

TEST(CollapseWatchdogTest, StrictCollapseEnvParsesOnlyLiteralOne) {
  ::setenv("DIBS_STRICT_COLLAPSE", "1", 1);
  EXPECT_TRUE(CollapseWatchdog::ReadStrictCollapseEnv());
  ::setenv("DIBS_STRICT_COLLAPSE", "0", 1);
  EXPECT_FALSE(CollapseWatchdog::ReadStrictCollapseEnv());
  ::unsetenv("DIBS_STRICT_COLLAPSE");
  EXPECT_FALSE(CollapseWatchdog::ReadStrictCollapseEnv());
}

// The whole guard is counter + clock arithmetic; identical inputs must give
// identical trajectories (the unit-level face of the bit-identical contract).
TEST(GuardDeterminismTest, IdenticalFeedsGiveIdenticalTrajectories) {
  auto run = [] {
    DetourGuard guard(TestConfig(), Time::Zero());
    std::vector<GuardState> states;
    const uint64_t detours[] = {40, 0, 0, 15, 5, 30, 0, 0, 0, 2};
    for (int w = 0; w < 10; ++w) {
      FeedWindow(guard, 100, detours[w], Time::Millis(w + 1));
      states.push_back(guard.state());
    }
    return states;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dibs
