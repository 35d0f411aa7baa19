// Differential and unit coverage for the calendar-queue event wheel.
//
// The wheel's contract is (time, scheduling-order) FIFO pop order under
// a monotonic clock. The stress tests here drive the wheel and a
// std::multimap reference model on identical operation sequences — random
// same-period mixes, and irregular far-future timers that force the
// wheel's overflow heap and its same-instant ties with bucket entries —
// and require the fired-event sequences to match exactly. A divergence of
// even one same-instant ordering fails.
#include "netsim/event_wheel.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <vector>

namespace ddpm::netsim {
namespace {

TEST(EventWheel, PopsInTimeOrder) {
  EventWheel q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventWheel, SimultaneousEventsFireInScheduleOrder) {
  EventWheel q;
  std::vector<int> fired;
  for (int i = 0; i < 50; ++i) {
    q.schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(fired[std::size_t(i)], i);
}

TEST(EventWheel, HeapEntriesWinSameInstantTies) {
  // An event scheduled for T while T was beyond the window (heap path)
  // predates — in global scheduling order — any bucket entry for T, so it
  // must fire first when the tie surfaces.
  static_assert(EventWheel::kWindow == 1024, "times below assume it");
  EventWheel q;
  std::vector<int> fired;
  q.schedule(2000, [&] { fired.push_back(0); });  // out of window: heap
  EXPECT_EQ(q.heap_scheduled(), 1u);
  q.schedule(1500, [&] { fired.push_back(-1); });  // also heap
  q.pop().second();  // fires at 1500; window now covers 2000
  q.schedule(2000, [&] { fired.push_back(1); });  // bucket
  q.schedule(2000, [&] { fired.push_back(2); });  // bucket
  EXPECT_EQ(q.wheel_scheduled(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{-1, 0, 1, 2}));
}

TEST(EventWheel, PeriodicCadenceStaysOnBucketPath) {
  EventWheel q;
  // A self-rescheduling periodic event with period << window: after the
  // initial schedule, every reschedule lands in a bucket.
  struct Tick {
    EventWheel* q;
    int remaining;
    SimTime period;
    void operator()() {
      if (--remaining > 0) q->schedule(q->last_popped_time() + period, *this);
    }
  };
  q.schedule(7, Tick{&q, 5000, 7});
  std::uint64_t pops = 0;
  while (!q.empty()) {
    q.pop().second();
    ++pops;
  }
  EXPECT_EQ(pops, 5000u);
  EXPECT_EQ(q.heap_scheduled(), 0u);
  EXPECT_EQ(q.wheel_scheduled(), 5000u);
}

TEST(EventWheel, FarTimersOverflowToHeapAndStillFireInOrder) {
  EventWheel q;
  std::vector<int> fired;
  q.schedule(500000, [&] { fired.push_back(2); });   // far: heap
  q.schedule(3, [&] { fired.push_back(0); });        // near: bucket
  q.schedule(900000, [&] { fired.push_back(3); });   // far: heap
  q.schedule(1000, [&] { fired.push_back(1); });     // near: bucket
  EXPECT_EQ(q.heap_scheduled(), 2u);
  EXPECT_EQ(q.wheel_scheduled(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventWheelDeathTest, SchedulingInTheSimulatedPastIsFatal) {
  EXPECT_DEATH(
      {
        EventWheel q;
        q.schedule(100, [] {});
        q.pop().second();
        q.schedule(50, [] {});  // behind the popped watermark
      },
      "simulated past");
}

TEST(EventWheelPopDue, FiresAnEventExactlyAtTheHorizonAndKeepsLaterOnes) {
  EventWheel q;
  std::vector<int> fired;
  q.schedule(10, [&] { fired.push_back(10); });
  q.schedule(20, [&] { fired.push_back(20); });
  q.schedule(21, [&] { fired.push_back(21); });
  EventWheel::Fired event;
  while (q.pop_due(20, event)) event.action();
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(event.when, 20u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.last_popped_time(), 20u) << "a refused pop moves no clock";
  EXPECT_FALSE(q.pop_due(20, event));
  EXPECT_EQ(event.when, 20u);
  ASSERT_TRUE(q.pop_due(21, event));
  event.action();
  EXPECT_EQ(fired.back(), 21);
}

TEST(EventWheelPopDue, HeapEntryWinsASameTimeTieWithABucketEntry) {
  EventWheel q;
  std::vector<int> fired;
  q.schedule(2000, [&] { fired.push_back(0); });  // beyond the window: heap
  q.schedule(1500, [&] { fired.push_back(-1); });
  EventWheel::Fired event;
  ASSERT_TRUE(q.pop_due(1500, event));
  event.action();
  q.schedule(2000, [&] { fired.push_back(1); });  // now in window: bucket
  ASSERT_EQ(q.heap_scheduled(), 2u);
  ASSERT_EQ(q.wheel_scheduled(), 1u);
  EXPECT_FALSE(q.pop_due(1999, event));
  while (q.pop_due(2000, event)) event.action();
  EXPECT_EQ(fired, (std::vector<int>{-1, 0, 1}));
}

TEST(EventWheelPopDue, WrappedBucketsBelowTheCursorFireLast) {
  // With the cursor at 10, times 1030 and 1033 file into buckets 6 and 9 —
  // below the cursor's bucket in the same bitmap word — and must fire after
  // every bucket above it; 1034 is one tick past the window: heap.
  static_assert(EventWheel::kWindow == 1024, "times below assume it");
  EventWheel q;
  std::vector<int> fired;
  q.schedule(10, [] {});
  EventWheel::Fired event;
  ASSERT_TRUE(q.pop_due(10, event));
  q.schedule(1034, [&] { fired.push_back(1034); });
  q.schedule(1030, [&] { fired.push_back(1030); });
  q.schedule(500, [&] { fired.push_back(500); });
  q.schedule(1033, [&] { fired.push_back(1033); });
  q.schedule(20, [&] { fired.push_back(20); });
  EXPECT_EQ(q.heap_scheduled(), 1u);
  EXPECT_EQ(q.wheel_scheduled(), 5u);
  while (q.pop_due(100000, event)) event.action();
  EXPECT_EQ(fired, (std::vector<int>{20, 500, 1030, 1033, 1034}));
  EXPECT_TRUE(q.empty());
}

TEST(EventWheelPopDue, EmptyWheelReturnsNoEventAndLeavesTheOutputAlone) {
  EventWheel q;
  EventWheel::Fired event;
  event.when = 77;
  EXPECT_FALSE(q.pop_due(~SimTime{0}, event));
  EXPECT_EQ(event.when, 77u);
  EXPECT_FALSE(event.action);
}

TEST(EventWheelPopDue, HorizonBeforeTheEarliestEventPopsNothing) {
  EventWheel q;
  q.schedule(300, [] {});    // bucket
  q.schedule(9000, [] {});   // heap
  EventWheel::Fired event;
  EXPECT_FALSE(q.pop_due(299, event));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.last_popped_time(), 0u) << "a refused pop moves no clock";
  ASSERT_TRUE(q.pop_due(8999, event));
  EXPECT_EQ(event.when, 300u);
  EXPECT_FALSE(q.pop_due(8999, event));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventWheelPopDue, HeapOnlyWheelRespectsTheHorizon) {
  // Every event lies beyond the window, so each pop decision is the heap
  // top's against the horizon.
  EventWheel q;
  std::vector<SimTime> fired;
  for (SimTime t : {50000, 20000, 80000, 20000}) {
    q.schedule(t, [&fired, t] { fired.push_back(t); });
  }
  ASSERT_EQ(q.heap_scheduled(), 4u);
  EventWheel::Fired event;
  while (q.pop_due(60000, event)) event.action();
  EXPECT_EQ(fired, (std::vector<SimTime>{20000, 20000, 50000}));
  EXPECT_EQ(q.last_popped_time(), 50000u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventWheel, EarliestEventWinsAcrossBucketAndHeap) {
  EventWheel q;
  q.schedule(5000, [] {});  // heap, scheduled first
  q.schedule(40, [] {});    // bucket, earlier
  q.schedule(4000, [] {});  // heap
  q.schedule(900, [] {});   // bucket
  std::vector<SimTime> times;
  while (!q.empty()) times.push_back(q.pop().first);
  EXPECT_EQ(times, (std::vector<SimTime>{40, 900, 4000, 5000}));
}

TEST(EventWheel, SizeTracksSchedulesAndPopsAcrossBothStores) {
  EventWheel q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.schedule(10, [] {});
  q.schedule(10, [] {});
  q.schedule(100000, [] {});
  EXPECT_EQ(q.size(), 3u);
  EXPECT_FALSE(q.empty());
  q.pop();
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  q.schedule(20, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  q.pop();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.wheel_scheduled() + q.heap_scheduled(), 4u);
}

TEST(EventWheel, LastPoppedTimeFollowsEachPop) {
  EventWheel q;
  EXPECT_EQ(q.last_popped_time(), 0u);
  q.schedule(7, [] {});
  q.schedule(3000, [] {});
  EXPECT_EQ(q.last_popped_time(), 0u) << "scheduling moves no clock";
  EXPECT_EQ(q.pop().first, 7u);
  EXPECT_EQ(q.last_popped_time(), 7u);
  EXPECT_EQ(q.pop().first, 3000u);
  EXPECT_EQ(q.last_popped_time(), 3000u);
}

TEST(EventWheel, WindowEdgeSplitsBucketAndHeap) {
  // From the watermark, offsets up to kWindow - 1 take a bucket; offset
  // kWindow and beyond take the overflow heap.
  constexpr SimTime kLast = EventWheel::kWindow - 1;
  EventWheel q;
  q.schedule(25, [] {});
  q.pop();
  q.schedule(25 + kLast, [] {});
  EXPECT_EQ(q.wheel_scheduled(), 2u);
  EXPECT_EQ(q.heap_scheduled(), 0u);
  q.schedule(25 + kLast + 1, [] {});
  EXPECT_EQ(q.heap_scheduled(), 1u);
  EXPECT_EQ(q.pop().first, 25 + kLast);
  EXPECT_EQ(q.pop().first, 25 + kLast + 1);
}

TEST(EventWheel, MoveOnlyActionsAreSupported) {
  EventWheel q;
  auto near = std::make_unique<int>(3);
  auto far = std::make_unique<int>(4);
  int sum = 0;
  q.schedule(1, [&sum, p = std::move(near)] { sum += *p; });
  q.schedule(50000, [&sum, p = std::move(far)] { sum += *p; });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(sum, 7);
}

TEST(EventWheel, ReservePreservesPendingEventsAndOrder) {
  EventWheel q;
  std::vector<int> fired;
  q.schedule(20, [&] { fired.push_back(2); });
  q.schedule(70000, [&] { fired.push_back(4); });
  q.reserve(1 << 14);
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(3); });
  EXPECT_EQ(q.size(), 4u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventWheel, EventsScheduledWhileFiringJoinTheBackOfTheirInstant) {
  EventWheel q;
  std::vector<int> fired;
  q.schedule(5, [&] {
    fired.push_back(0);
    q.schedule(5, [&] { fired.push_back(3); });  // same instant, last
    q.schedule(6, [&] { fired.push_back(4); });
  });
  q.schedule(5, [&] { fired.push_back(1); });
  q.schedule(5, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventWheel, BucketsAreReusedAcrossWindowRotations) {
  // A chain whose hops span just under the window revisits every bucket
  // index many times; each visit must file under the new time, not replay
  // a stale one.
  constexpr SimTime kHop = EventWheel::kWindow - 1;
  EventWheel q;
  std::vector<SimTime> times;
  struct Hop {
    EventWheel* q;
    std::vector<SimTime>* times;
    int remaining;
    void operator()() {
      times->push_back(q->last_popped_time());
      if (--remaining > 0) q->schedule(q->last_popped_time() + kHop, *this);
    }
  };
  q.schedule(kHop, Hop{&q, &times, 3000});
  while (!q.empty()) q.pop().second();
  ASSERT_EQ(times.size(), 3000u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(times[i], SimTime(i + 1) * kHop);
  }
  EXPECT_EQ(q.heap_scheduled(), 0u);
}

TEST(EventWheel, HeapEntriesAtOneInstantFireInScheduleOrder) {
  EventWheel q;
  std::vector<int> fired;
  for (int i = 0; i < 40; ++i) {
    q.schedule(SimTime(100000 + (i % 3)), [&fired, i] { fired.push_back(i); });
  }
  ASSERT_EQ(q.heap_scheduled(), 40u);
  while (!q.empty()) q.pop().second();
  std::vector<int> expected;
  for (int r = 0; r < 3; ++r) {
    for (int i = r; i < 40; i += 3) expected.push_back(i);
  }
  EXPECT_EQ(fired, expected);
}

TEST(EventWheel, DrainedWheelAcceptsEventsAtTheWatermark) {
  EventWheel q;
  q.schedule(4000, [] {});
  q.pop();
  ASSERT_TRUE(q.empty());
  int fired = 0;
  q.schedule(4000, [&] { ++fired; });  // at the watermark: allowed
  q.schedule(4001, [&] { ++fired; });
  EXPECT_EQ(q.pop().first, 4000u);
  EXPECT_EQ(q.pop().first, 4001u);
  EXPECT_EQ(fired, 0) << "pop hands the action back unfired";
}

TEST(EventWheel, InterleavedCadencesFireInTimeThenScheduleOrder) {
  // Two periodic sources (periods 6 and 9) share every 18th tick; at each
  // shared tick the source that rescheduled earlier fires first.
  struct Tick {
    EventWheel* q;
    std::vector<std::pair<SimTime, int>>* log;
    int id;
    SimTime period;
    void operator()() {
      log->emplace_back(q->last_popped_time(), id);
      if (q->last_popped_time() + period <= 360) {
        q->schedule(q->last_popped_time() + period, *this);
      }
    }
  };
  EventWheel q;
  std::vector<std::pair<SimTime, int>> log;
  q.schedule(6, Tick{&q, &log, 6, 6});
  q.schedule(9, Tick{&q, &log, 9, 9});
  while (!q.empty()) q.pop().second();

  ASSERT_EQ(log.size(), 60u + 40u);
  std::size_t shared = 0;
  for (std::size_t i = 0; i + 1 < log.size(); ++i) {
    EXPECT_LE(log[i].first, log[i + 1].first);
    if (log[i].first == log[i + 1].first) {
      ++shared;
      // At t = 18k the period-9 source's reschedule (at 18k - 9) predates
      // the period-6 source's (at 18k - 6).
      EXPECT_EQ(log[i].second, 9) << "t=" << log[i].first;
      EXPECT_EQ(log[i + 1].second, 6) << "t=" << log[i].first;
    }
  }
  EXPECT_EQ(shared, 20u);
  EXPECT_EQ(q.heap_scheduled(), 0u);
}

TEST(EventWheel, StressRandomOrderStaysSorted) {
  // A large batch scheduled up front at random times across both stores
  // drains in non-decreasing time.
  EventWheel q;
  std::uint64_t x = 0x853c49e6748fea9bull;
  constexpr int kEvents = 20000;
  for (int i = 0; i < kEvents; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    q.schedule(x % 200000, [] {});
  }
  EXPECT_GT(q.heap_scheduled(), 0u);
  EXPECT_GT(q.wheel_scheduled(), 0u);
  SimTime last = 0;
  int popped = 0;
  while (!q.empty()) {
    const SimTime t = q.pop().first;
    EXPECT_LE(last, t);
    last = t;
    ++popped;
  }
  EXPECT_EQ(popped, kEvents);
}

/// Counts the moves and destructions of the callable it is captured in.
struct Tally {
  int moves = 0;
  int destroys = 0;
};
struct Counted {
  Tally* tally;
  bool owner = true;
  explicit Counted(Tally* t) : tally(t) {}
  Counted(Counted&& other) noexcept : tally(other.tally) {
    other.owner = false;
    ++tally->moves;
  }
  Counted(const Counted&) = delete;
  ~Counted() {
    if (owner) ++tally->destroys;
  }
  void operator()() const {}
};

TEST(InlineAction, CapturesOfTheSimulatorTakeTheTrivialPath) {
  struct Host {
    int port = 0;
  } host;
  Host* self = &host;
  const int port = 3;
  auto pair = [self, port]() { self->port = port; };
  auto single = [self]() { self->port = 0; };
  static_assert(InlineAction::is_trivial<decltype(pair)>);
  static_assert(InlineAction::is_trivial<decltype(single)>);
  auto owned = std::make_unique<int>(1);
  auto heavy = [owned = std::move(owned)]() {};
  static_assert(!InlineAction::is_trivial<decltype(heavy)>);
  static_assert(!InlineAction::is_trivial<Counted>);

  InlineAction a(pair);
  InlineAction b(std::move(a));  // byte copy
  EXPECT_FALSE(a);
  b();
  EXPECT_EQ(host.port, 3);
}

TEST(InlineAction, NonTrivialCapturesMoveAndDieExactlyOnce) {
  Tally tally;
  {
    InlineAction a(Counted{&tally});  // one move into the buffer
    EXPECT_EQ(tally.moves, 1);
    EXPECT_EQ(tally.destroys, 0) << "the moved-from temporary owns nothing";
    InlineAction b(std::move(a));
    EXPECT_EQ(tally.moves, 2);
    EXPECT_EQ(tally.destroys, 0);
    EXPECT_FALSE(a);
    a = std::move(b);
    EXPECT_EQ(tally.moves, 3);
    b.reset();  // empty: nothing to destroy
    EXPECT_EQ(tally.destroys, 0);
  }
  EXPECT_EQ(tally.destroys, 1);

  // Scheduled and fired through the wheel: the one live copy dies with the
  // fired event, and a unique_ptr capture is released exactly once.
  Tally wheel_tally;
  auto owned = std::make_unique<int>(7);
  int seen = 0;
  {
    EventWheel q;
    q.schedule(4, Counted{&wheel_tally});
    q.schedule(5, [&seen, owned = std::move(owned)] { seen = *owned; });
    EventWheel::Fired event;
    while (q.pop_due(10, event)) {
      event.action();
      event.action.reset();
    }
    EXPECT_EQ(wheel_tally.destroys, 1);
  }
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(wheel_tally.destroys, 1);
}

/// One pending event of the reference model.
struct ModelEvent {
  std::uint64_t token;
  bool beyond_window;  // `when - now > kWindow - 1` at scheduling time
};

/// Counts of what one differential run exercised.
struct DifferentialCoverage {
  /// Pops where a beyond-window entry tied, at the same instant, with an
  /// in-window entry behind it: the heap-wins-ties case.
  std::uint64_t cross_store_ties = 0;
  std::uint64_t heap_scheduled = 0;
  std::uint64_t wheel_scheduled = 0;
};

/// Applies one random operation sequence to the wheel and to a
/// std::multimap keyed by (when, scheduling order) — the order the wheel
/// contracts to pop in. Every pop must surface the model's earliest
/// (time, token); half the pops go through pop_due with a random horizon,
/// where the model says whether an event is due.
void run_differential(std::uint64_t seed, std::uint64_t near_span,
                      std::uint64_t far_bias, int steps,
                      DifferentialCoverage& coverage) {
  EventWheel wheel;
  std::multimap<std::pair<SimTime, std::uint64_t>, ModelEvent> model;
  std::uint64_t seq = 0;
  std::uint64_t fired_token = 0;

  std::uint64_t x = seed;
  auto rnd = [&x](std::uint64_t bound) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % bound;
  };

  SimTime now = 0;
  // Checks a fired event against the model's earliest entry and retires it.
  const auto matches_model = [&](SimTime when, EventWheel::Action& action) {
    const auto first = model.begin();
    const auto next = std::next(first);
    if (first->second.beyond_window && next != model.end() &&
        next->first.first == first->first.first &&
        !next->second.beyond_window) {
      ++coverage.cross_store_ties;
    }
    EXPECT_EQ(when, first->first.first);
    action();
    EXPECT_EQ(fired_token, first->second.token)
        << "same-instant FIFO order diverged at t=" << when;
    const bool ok = when == first->first.first &&
                    fired_token == first->second.token;
    now = when;
    model.erase(first);
    return ok;
  };

  for (int step = 0; step < steps; ++step) {
    if (rnd(10) < 5 || model.empty()) {
      // Mostly near-future times; far_bias controls how often a timestamp
      // jumps far beyond the wheel window (overflow heap).
      SimTime when = now + rnd(near_span);
      if (far_bias != 0 && rnd(far_bias) == 0) when += 100000 + rnd(100000);
      const std::uint64_t token = seq;
      model.emplace(std::make_pair(when, seq++),
                    ModelEvent{token, when - now > EventWheel::kWindow - 1});
      wheel.schedule(when, [&fired_token, token] { fired_token = token; });
      continue;
    }
    ASSERT_EQ(wheel.size(), model.size());
    const SimTime due = model.begin()->first.first;
    if (rnd(2) == 0) {
      // A horizon that lands before, on, or after the earliest event.
      const SimTime until = now + rnd(2 * near_span + 2);
      EventWheel::Fired fired;
      const bool popped = wheel.pop_due(until, fired);
      ASSERT_EQ(popped, due <= until) << "horizon " << until;
      if (popped) {
        ASSERT_TRUE(matches_model(fired.when, fired.action));
      }
    } else {
      auto [when, action] = wheel.pop();
      ASSERT_TRUE(matches_model(when, action));
    }
  }
  while (!model.empty()) {
    ASSERT_FALSE(wheel.empty());
    auto [when, action] = wheel.pop();
    ASSERT_TRUE(matches_model(when, action));
  }
  EXPECT_TRUE(wheel.empty());
  coverage.heap_scheduled = wheel.heap_scheduled();
  coverage.wheel_scheduled = wheel.wheel_scheduled();
}

TEST(EventWheel, DifferentialStressNearWindowMix) {
  // Times within the window: pure bucket path against the model.
  DifferentialCoverage coverage;
  run_differential(0x243f6a8885a308d3ull, 800, 0, 20000, coverage);
  EXPECT_EQ(coverage.heap_scheduled, 0u);
}

TEST(EventWheel, DifferentialStressSamePeriodHeavy) {
  // Tiny spread: massive same-instant collisions stress FIFO tie-breaks.
  DifferentialCoverage coverage;
  run_differential(0x9e3779b97f4a7c15ull, 4, 0, 20000, coverage);
}

TEST(EventWheel, DifferentialStressIrregularOverflowMix) {
  // One in eight schedules jumps far beyond the window, and near times
  // reach past it too, landing in the wheel's overflow heap. Ordering
  // across the bucket/heap boundary — including same-instant ties as far
  // events come into window — must still match the model, and the run
  // must actually produce such ties.
  DifferentialCoverage coverage;
  run_differential(0xd1b54a32d192ed03ull, 1200, 8, 20000, coverage);
  EXPECT_GT(coverage.heap_scheduled, 0u);
  EXPECT_GT(coverage.wheel_scheduled, 0u);
  EXPECT_GT(coverage.cross_store_ties, 0u)
      << "no heap/bucket tie: the heap-wins-ties order went untested";
}

}  // namespace
}  // namespace ddpm::netsim
