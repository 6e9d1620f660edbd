#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace dibs {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), Time::Zero());
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Time::Micros(30), [&] { order.push_back(3); });
  sim.Schedule(Time::Micros(10), [&] { order.push_back(1); });
  sim.Schedule(Time::Micros(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Time::Micros(30));
}

TEST(SimulatorTest, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Time::Micros(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, NowAdvancesDuringEvents) {
  Simulator sim;
  Time seen;
  sim.Schedule(Time::Millis(7), [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, Time::Millis(7));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      sim.Schedule(Time::Micros(1), chain);
    }
  };
  sim.Schedule(Time::Zero(), chain);
  sim.Run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.Now(), Time::Micros(4));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.Schedule(Time::Micros(1), [&] { ran = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelInvalidIdIsNoop) {
  Simulator sim;
  const EventId fired = sim.Schedule(Time::Micros(1), [] {});
  sim.Run();
  sim.Cancel(fired);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Cancel(kInvalidEventId);
  sim.Cancel(999999);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
}

TEST(SimulatorTest, CancelOneOfMany) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Time::Micros(1), [&] { order.push_back(1); });
  const EventId id = sim.Schedule(Time::Micros(2), [&] { order.push_back(2); });
  sim.Schedule(Time::Micros(3), [&] { order.push_back(3); });
  sim.Cancel(id);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Time::Micros(10), [&] { order.push_back(1); });
  sim.Schedule(Time::Micros(20), [&] { order.push_back(2); });
  sim.Schedule(Time::Micros(30), [&] { order.push_back(3); });
  sim.RunUntil(Time::Micros(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.Now(), Time::Micros(20));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilAdvancesTimeWithEmptyQueue) {
  Simulator sim;
  sim.RunUntil(Time::Seconds(5));
  EXPECT_EQ(sim.Now(), Time::Seconds(5));
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.RunFor(Time::Millis(5));
  sim.RunFor(Time::Millis(5));
  EXPECT_EQ(sim.Now(), Time::Millis(10));
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Time::Micros(i), [&] {
      if (++count == 3) {
        sim.Stop();
      }
    });
  }
  sim.Run();
  EXPECT_EQ(count, 3);
  // Remaining events still pending; a new Run drains them.
  sim.Run();
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, EventsProcessedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.Schedule(Time::Micros(i), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator sim;
  sim.Schedule(Time::Micros(1), [] {});
  const EventId id = sim.Schedule(Time::Micros(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Simulator sim(seed);
    std::vector<uint64_t> draws;
    for (int i = 0; i < 10; ++i) {
      sim.Schedule(Time::Micros(i), [&] { draws.push_back(sim.rng().NextUint64()); });
    }
    sim.Run();
    return draws;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(SimulatorTest, ZeroDelayEventRunsAtCurrentTime) {
  Simulator sim;
  sim.Schedule(Time::Millis(1), [&] {
    sim.Schedule(Time::Zero(), [&] { EXPECT_EQ(sim.Now(), Time::Millis(1)); });
  });
  sim.Run();
  EXPECT_EQ(sim.Now(), Time::Millis(1));
}

}  // namespace
}  // namespace dibs
