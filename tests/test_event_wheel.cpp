// Differential and unit coverage for the calendar-queue event wheel.
//
// The wheel's contract is "EventQueue, faster for regular cadences": same
// (time, scheduling-order) FIFO semantics, same ticket/generation
// cancellation, same monotonic-clock checks. The stress tests here run the
// wheel and the 4-ary heap side by side on identical operation sequences —
// random same-period mixes, irregular far-future timers that force the
// wheel's overflow heap, and cancel/tombstone interplay — and require the
// fired-event sequences to match exactly. A divergence of even one
// same-instant ordering fails.
#include "netsim/event_wheel.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "netsim/event_queue.hpp"
#include "netsim/simulator.hpp"
#include "wormhole/wheel_runner.hpp"

#include "attack/traffic.hpp"
#include "routing/router.hpp"
#include "topology/factory.hpp"

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
  EventWheel q;
  ASSERT_EQ(q.window(), EventWheel::kDefaultWindow);
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

TEST(EventWheel, CancelTombstonesAndStaleIdsStayDead) {
  EventWheel q;
  bool fired = false;
  const EventId id = q.schedule(10, [&] { fired = true; });
  q.schedule(20, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.tombstone_count(), 1u);
  EXPECT_FALSE(q.cancel(id)) << "double cancel must fail";
  while (!q.empty()) q.pop().second();
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.tombstone_count(), 0u) << "pop must sweep the dead prefix";

  // Stale ids survive clear() without hitting recycled slots. (The clock
  // watermark is at 20 from the pops above; clear() resets it.)
  const EventId stale = q.schedule(25, [] {});
  q.clear();
  EXPECT_FALSE(q.cancel(stale));
  bool fresh = false;
  q.schedule(1, [&fresh] { fresh = true; });
  EXPECT_FALSE(q.cancel(stale));
  q.pop().second();
  EXPECT_TRUE(fresh);
}

TEST(EventWheel, HeavyCancellationCompactsBothStores) {
  EventWheel q;
  // Rounds alternate near (bucket) and far (heap) targets so the sweep
  // policy exercises both stores.
  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 400; ++i) {
      const SimTime base = (i % 2 == 0) ? 0 : 100000;
      ids.push_back(
          q.schedule(base + SimTime(round * 10 + i % 10), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i % 100 != 0) {
        EXPECT_TRUE(q.cancel(ids[i]));
      }
    }
  }
  EXPECT_EQ(q.size(), 50u * 4u);
  SimTime last = 0;
  while (!q.empty()) {
    auto [when, action] = q.pop();
    EXPECT_GE(when, last);
    last = when;
  }
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
  EXPECT_EQ(q.next_time(), 21u);
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

TEST(EventWheelPopDue, SkipsTombstonedBucketHeadsAndHeapTop) {
  EventWheel q;
  std::vector<int> fired;
  const EventId dead_head = q.schedule(5, [&] { fired.push_back(-5); });
  q.schedule(5, [&] { fired.push_back(5); });
  const EventId dead_bucket = q.schedule(7, [&] { fired.push_back(-7); });
  const EventId dead_top = q.schedule(50000, [&] { fired.push_back(-1); });
  q.schedule(60000, [&] { fired.push_back(60000); });
  ASSERT_TRUE(q.cancel(dead_head));
  ASSERT_TRUE(q.cancel(dead_bucket));
  ASSERT_TRUE(q.cancel(dead_top));
  EXPECT_EQ(q.tombstone_count(), 3u);
  EventWheel::Fired event;
  ASSERT_TRUE(q.pop_due(100000, event));
  EXPECT_EQ(event.when, 5u);
  event.action();
  ASSERT_TRUE(q.pop_due(100000, event));
  EXPECT_EQ(event.when, 60000u) << "the dead bucket and heap top are skipped";
  event.action();
  EXPECT_EQ(fired, (std::vector<int>{5, 60000}));
  EXPECT_EQ(q.tombstone_count(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventWheelPopDue, EmptyWheelReturnsNoEventAndLeavesTheOutputAlone) {
  EventWheel q;
  EventWheel::Fired event;
  event.when = 77;
  EXPECT_FALSE(q.pop_due(~SimTime{0}, event));
  EXPECT_EQ(event.when, 77u);
  EXPECT_FALSE(event.action);
  // Only tombstones pending: still no event.
  q.cancel(q.schedule(3, [] {}));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop_due(~SimTime{0}, event));
  EXPECT_EQ(event.when, 77u);
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

/// One operation sequence applied to both implementations; every pop must
/// surface the same (time, token) on both sides.
void run_differential(std::uint64_t seed, std::uint64_t near_span,
                      std::uint64_t far_bias, int steps) {
  EventQueue heap;
  EventWheel wheel;
  std::uint64_t heap_token = 0;
  std::uint64_t wheel_token = 0;
  std::uint64_t next_token = 0;
  std::size_t pending = 0;
  std::vector<std::pair<EventId, EventId>> ids;  // (heap id, wheel id)

  std::uint64_t x = seed;
  auto rnd = [&x](std::uint64_t bound) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % bound;
  };

  SimTime now = 0;
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t op = rnd(10);
    if (op < 5 || pending == 0) {
      // Mostly near-future (bucket) times; far_bias controls how often a
      // timestamp lands beyond the wheel window (overflow heap).
      SimTime when = now + rnd(near_span);
      if (far_bias != 0 && rnd(far_bias) == 0) when += 100000 + rnd(100000);
      const std::uint64_t token = next_token++;
      ids.emplace_back(
          heap.schedule(when, [&heap_token, token] { heap_token = token; }),
          wheel.schedule(when, [&wheel_token, token] { wheel_token = token; }));
      ++pending;
    } else if (op < 7 && !ids.empty()) {
      // Cancel the same (possibly stale) id pair on both; results agree.
      const auto [hid, wid] = ids[rnd(ids.size())];
      const bool h = heap.cancel(hid);
      const bool w = wheel.cancel(wid);
      ASSERT_EQ(h, w);
      if (h) --pending;
    } else {
      ASSERT_EQ(heap.empty(), wheel.empty());
      ASSERT_EQ(heap.size(), wheel.size());
      if (!heap.empty()) {
        const SimTime due = heap.next_time();
        ASSERT_EQ(due, wheel.next_time());
        // Half the pops go through pop_due with a horizon that lands
        // before, on, or after the earliest event.
        if (rnd(2) == 0) {
          const SimTime until = now + rnd(2 * near_span + 2);
          EventWheel::Fired fired;
          const bool popped = wheel.pop_due(until, fired);
          ASSERT_EQ(popped, due <= until) << "horizon " << until;
          if (!popped) continue;
          auto [hw, ha] = heap.pop();
          ASSERT_EQ(hw, fired.when);
          ha();
          fired.action();
          ASSERT_EQ(heap_token, wheel_token)
              << "same-instant FIFO order diverged at t=" << hw;
          now = hw;
          --pending;
          continue;
        }
        auto [hw, ha] = heap.pop();
        auto [ww, wa] = wheel.pop();
        ASSERT_EQ(hw, ww);
        ha();
        wa();
        ASSERT_EQ(heap_token, wheel_token)
            << "same-instant FIFO order diverged at t=" << hw;
        now = hw;
        --pending;
      }
    }
  }
  while (!heap.empty()) {
    ASSERT_FALSE(wheel.empty());
    auto [hw, ha] = heap.pop();
    auto [ww, wa] = wheel.pop();
    ASSERT_EQ(hw, ww);
    ha();
    wa();
    ASSERT_EQ(heap_token, wheel_token);
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(EventWheel, DifferentialStressNearWindowMix) {
  // Times within the window: pure bucket path against the heap model.
  run_differential(0x243f6a8885a308d3ull, 800, 0, 20000);
}

TEST(EventWheel, DifferentialStressSamePeriodHeavy) {
  // Tiny spread: massive same-instant collisions stress FIFO tie-breaks.
  run_differential(0x9e3779b97f4a7c15ull, 4, 0, 20000);
}

TEST(EventWheel, DifferentialStressIrregularOverflowMix) {
  // One in eight schedules jumps far beyond the window, landing in the
  // wheel's overflow heap; ordering across the bucket/heap boundary —
  // including ties as far events come into window — must still match.
  run_differential(0xd1b54a32d192ed03ull, 1200, 8, 20000);
}

}  // namespace
}  // namespace ddpm::netsim

namespace ddpm::wormhole {
namespace {

/// The wormhole link clock driven as a periodic wheel event must be
/// observationally identical to stepping the network directly, and must
/// never touch the wheel's overflow heap.
TEST(WheelRunner, WheelDrivenRunMatchesDirectRun) {
  const auto topo = topo::make_topology("torus:4x4");
  const auto router = route::make_router("adaptive", *topo);

  wormhole::WormholeNetwork direct(*topo, *router, nullptr, {});
  wormhole::WormholeNetwork wheeled(*topo, *router, nullptr, {});

  attack::UniformPattern pattern(*topo);
  netsim::Rng rng_a(77);
  netsim::Rng rng_b(77);
  const auto load = [&](wormhole::WormholeNetwork& net, netsim::Rng& rng) {
    for (int i = 0; i < 200; ++i) {
      const auto src = topo::NodeId(rng.next_below(topo->num_nodes()));
      const auto dst = pattern.pick_dest(src, rng);
      pkt::Packet p;
      p.header = pkt::IpHeader(src + 1, dst + 1, pkt::IpProto::kUdp, 44);
      p.true_source = src;
      p.dest_node = dst;
      p.payload_bytes = 44;
      net.inject(std::move(p), src);
    }
  };
  load(direct, rng_a);
  load(wheeled, rng_b);

  direct.run(600);

  netsim::Simulator sim;
  const std::uint64_t executed = run_on_wheel(sim, wheeled, 600, 5);
  EXPECT_EQ(executed, 600u);
  EXPECT_EQ(sim.now(), 600u * 5u);

  EXPECT_EQ(wheeled.cycle(), direct.cycle());
  EXPECT_EQ(wheeled.delivered(), direct.delivered());
  EXPECT_EQ(wheeled.flits_in_flight(), direct.flits_in_flight());
}

}  // namespace
}  // namespace ddpm::wormhole
