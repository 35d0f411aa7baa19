#include "netsim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ddpm::netsim {
namespace {

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<SimTime> observed;
  sim.schedule_at(10, [&] { observed.push_back(sim.now()); });
  sim.schedule_at(25, [&] { observed.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(observed, (std::vector<SimTime>{10, 25}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  SimTime inner = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_in(5, [&] { inner = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner, 105u);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  sim.run(20);
  EXPECT_EQ(fired, 2);       // the t=20 event fires, t=30 does not
  EXPECT_EQ(sim.now(), 20u);
  sim.run(30);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunReturnsEventCount) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(SimTime(i), [] {});
  EXPECT_EQ(sim.run(), 7u);
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.schedule_in(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 9u);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] { ++fired; });
  sim.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, PastScheduleAtClampsToNow) {
  Simulator sim;
  SimTime when = 0;
  sim.schedule_at(50, [&] {
    sim.schedule_at(10, [&] { when = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(when, 50u);
}

TEST(Simulator, ClampedEventsAreCounted) {
  // The clamp keeps past-stamped events from corrupting the clock, but a
  // model leaning on it is mis-computing timestamps; the counter makes
  // that visible without turning the clamp into a hard failure.
  Simulator sim;
  sim.schedule_at(100, [&] {
    sim.schedule_at(10, [] {});   // past: clamped
    sim.schedule_at(100, [] {});  // exactly now: not a clamp
    sim.schedule_at(30, [] {});   // past: clamped
    sim.schedule_at(200, [] {});  // future: not a clamp
  });
  EXPECT_EQ(sim.clamped_events(), 0u);
  sim.run();
  EXPECT_EQ(sim.clamped_events(), 2u);
}

TEST(Simulator, ReserveDoesNotDisturbPendingEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(5, [&] { ++fired; });
  sim.reserve(4096);
  sim.schedule_at(6, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ClearPendingDropsEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] { ++fired; });
  sim.clear_pending();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_at(5, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, HorizonAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run(1000);
  EXPECT_EQ(sim.now(), 1000u);
}

TEST(Simulator, RunLeavesTheClockAtTheHorizonOrTheLastEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(40, [&] { ++fired; });
  EXPECT_EQ(sim.run(25), 1u);
  EXPECT_EQ(sim.now(), 25u) << "pending later event: clock at the horizon";
  EXPECT_EQ(sim.run(5), 0u);
  EXPECT_EQ(sim.now(), 25u) << "a horizon in the past never rewinds";
  sim.schedule_in(5, [&] { ++fired; });  // relative to the advanced clock
  EXPECT_EQ(sim.run(30), 1u);
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.now(), 40u) << "unbounded run: clock at the last event";
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.run(100), 0u);
  EXPECT_EQ(sim.now(), 100u) << "drained queue: clock at the horizon";
}

}  // namespace
}  // namespace ddpm::netsim
