#include "netsim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
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

TEST(Simulator, SimultaneousEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> fired;
  for (int i = 0; i < 20; ++i) {
    sim.schedule_at(40, [&fired, i] { fired.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(fired[std::size_t(i)], i);
}

TEST(Simulator, ZeroDelayEventRunsAfterItsSameInstantPeers) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(8, [&] {
    fired.push_back(0);
    sim.schedule_in(0, [&] { fired.push_back(2); });
  });
  sim.schedule_at(8, [&] { fired.push_back(1); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), 8u);
}

TEST(Simulator, FarFutureTimersFireAtTheirTimes) {
  // Timers far beyond the wheel's window (the overflow path) interleave
  // with near events and still fire at their exact times.
  Simulator sim;
  std::vector<SimTime> observed;
  const auto record = [&] { observed.push_back(sim.now()); };
  sim.schedule_at(5'000'000, record);
  sim.schedule_at(12, record);
  sim.schedule_at(70'000, record);
  sim.schedule_at(12, [&] { sim.schedule_in(2'000'000, record); });
  sim.run();
  EXPECT_EQ(observed,
            (std::vector<SimTime>{12, 70'000, 2'000'012, 5'000'000}));
}

TEST(Simulator, PendingCountTracksScheduledAndExecutedEvents) {
  Simulator sim;
  EXPECT_EQ(sim.pending_count(), 0u);
  sim.schedule_at(10, [] {});
  sim.schedule_at(20, [] {});
  sim.schedule_at(90'000, [] {});
  EXPECT_EQ(sim.pending_count(), 3u);
  sim.run(15);
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.schedule_in(1, [] {});
  EXPECT_EQ(sim.pending_count(), 3u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, EventsExecutedAccumulatesAcrossRuns) {
  Simulator sim;
  for (SimTime t = 1; t <= 10; ++t) sim.schedule_at(t * 10, [] {});
  EXPECT_EQ(sim.run(35), 3u);
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_EQ(sim.run(70), 4u);
  EXPECT_EQ(sim.events_executed(), 7u);
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(sim.events_executed(), 10u);
}

TEST(Simulator, MoveOnlyCapturesAreSupported) {
  Simulator sim;
  auto payload = std::make_unique<int>(11);
  int seen = 0;
  sim.schedule_in(3, [&seen, p = std::move(payload)] { seen = *p; });
  sim.run();
  EXPECT_EQ(seen, 11);
}

TEST(Simulator, ClampedEventFiresAfterEventsAlreadyDueNow) {
  // A past timestamp is clamped to now() and queues behind the events
  // already scheduled for the current instant.
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(60, [&] {
    fired.push_back(0);
    sim.schedule_at(5, [&] { fired.push_back(2); });  // past: clamped
  });
  sim.schedule_at(60, [&] { fired.push_back(1); });
  sim.schedule_at(61, [&] { fired.push_back(3); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.clamped_events(), 1u);
}

TEST(Simulator, HorizonFiresEveryEventOfItsInstant) {
  // Events stamped at the horizon fire, including those a firing event
  // schedules for that same instant.
  Simulator sim;
  int at_horizon = 0;
  int after = 0;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(20, [&] {
      ++at_horizon;
      sim.schedule_in(0, [&] { ++at_horizon; });
    });
  }
  sim.schedule_at(21, [&] { ++after; });
  EXPECT_EQ(sim.run(20), 10u);
  EXPECT_EQ(at_horizon, 10);
  EXPECT_EQ(after, 0);
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(Simulator, EveryScheduledEventFiresExactlyOnce) {
  // The kernel has no cancellation: near, far, zero-delay and clamped
  // events all run, once each.
  Simulator sim;
  std::vector<int> count(4, 0);
  sim.schedule_at(100, [&] {
    ++count[0];
    sim.schedule_in(0, [&] { ++count[1]; });
    sim.schedule_at(1, [&] { ++count[2]; });  // clamped to 100
    sim.schedule_in(500'000, [&] { ++count[3]; });
  });
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(count, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(count, (std::vector<int>{1, 1, 1, 1}));
}

}  // namespace
}  // namespace ddpm::netsim
