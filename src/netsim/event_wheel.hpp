// The simulation kernel's scheduler: a calendar-queue event wheel with O(1)
// schedule/pop for the regular cadences that dominate a link-clocked
// simulation, and a 4-ary-heap overflow for irregular timers.
//
// A plain heap pays O(log n) sifts on every schedule and pop even when — as
// in steady-state switch forwarding — almost every event lands within a few
// hundred ticks of the clock. The wheel exploits that locality: timestamps
// inside the near-future window [cursor, cursor + kWindow) go to a
// per-timestamp bucket (append = schedule, indexed read = pop; both O(1)),
// and only timestamps beyond the window fall back to the heap. The window
// slides as the clock advances, so a periodic event with period < kWindow
// never touches the heap at all.
//
// Ordering is (time, scheduling order) — the differential stress test
// (tests/test_event_wheel.cpp) pins it against a std::multimap model:
//   * FIFO among simultaneous events. Within a bucket, append order is
//     scheduling order. Across the bucket/heap split, every heap entry for
//     a time T was necessarily scheduled while T was still beyond the
//     window — strictly before any bucket entry for T existed (the window
//     only slides forward) — so popping heap-before-bucket on a time tie
//     replays global scheduling order.
//   * The monotonic-clock contract (schedule at or after the last popped
//     time, checked fatal) — which is also what keeps the window math
//     sound: `when - cursor` never underflows.
//
// The wheel's next-event scan walks an occupancy bitmap (one bit per
// bucket, kWindow/64 words, circularly from the cursor), so a sparse wheel
// costs a handful of word tests per pop rather than a bucket-array sweep.
// pop_due() is the one pop body: a single scan finds the earliest event and
// tests it against the caller's horizon, so the Simulator loop pays for it
// once per event, not twice (peek, then pop).
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "core/hot_path.hpp"
#include "netsim/inline_action.hpp"
#include "netsim/time.hpp"

namespace ddpm::netsim {

class EventWheel {
 public:
  using Action = InlineAction;

  /// Bucket count (= window width in ticks). A power of two >= 64, so the
  /// occupancy bitmap's word count is a power of two too. It covers the
  /// cluster model's forwarding cadence (per-hop delays of a few hundred
  /// ns) and every per-tick link clock with headroom.
  static constexpr std::size_t kWindow = 1024;

  EventWheel();

  EventWheel(const EventWheel&) = delete;
  EventWheel& operator=(const EventWheel&) = delete;

  /// A popped event: its time and its action (see pop_due).
  struct Fired {
    SimTime when = 0;
    Action action;
  };

  /// Schedules `action` at absolute time `when`. Contract: `when` must not
  /// precede the time of the most recently popped event (checked, fatal).
  /// The callable is built directly in its ticket slot.
  template <typename F>
  void schedule(SimTime when, F&& action) {
    DDPM_CHECK(when >= cursor_, "event scheduled in the simulated past");
    const std::uint32_t ticket = acquire_ticket();
    actions_[ticket].emplace(std::forward<F>(action));
    enqueue(when, ticket);
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// Time of the most recently popped event (0 before the first pop).
  SimTime last_popped_time() const noexcept { return cursor_; }

  /// If the earliest pending event is due at or before `until`
  /// (inclusive), removes it into `out`, advances the clock watermark to
  /// its time and returns true. Otherwise — including when the wheel is
  /// empty — leaves `out` untouched and returns false. A heap entry wins a
  /// same-time tie with a bucket entry.
  bool pop_due(SimTime until, Fired& out);

  /// Removes the earliest event and returns (time, action).
  /// Precondition: !empty().
  std::pair<SimTime, Action> pop();

  /// Pre-sizes the ticket pool and overflow heap for `n` simultaneous
  /// pending events, and every bucket for a burst of same-tick events
  /// proportional to `n`.
  void reserve(std::size_t n);

  /// Observability for tests, perfbench's heap share and the crossover
  /// discussion in docs/PERFORMANCE.md: how many schedules took the O(1)
  /// bucket path vs the O(log n) overflow heap.
  std::uint64_t wheel_scheduled() const noexcept { return wheel_scheduled_; }
  std::uint64_t heap_scheduled() const noexcept { return heap_scheduled_; }

 private:
  /// Overflow-heap entry; sifts move these three words, never an Action
  /// (the layout certification pins the shape).
  struct DDPM_HOT_STATE Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t ticket;
  };
  DDPM_HOT_LAYOUT(Entry, 24, 8);

  /// One near-future timestamp's events, in scheduling order. `head`
  /// advances on pop; storage is recycled (capacity retained) when the
  /// bucket drains, so steady-state cadences never allocate.
  struct Bucket {
    std::vector<std::uint32_t> tickets;
    std::uint32_t head = 0;
  };

  static constexpr std::size_t kMask = kWindow - 1;
  static constexpr std::size_t kWords = kWindow / 64;
  static constexpr std::size_t kArity = 4;
  static constexpr SimTime kNoTime = ~SimTime{0};
  static_assert((kWindow & kMask) == 0 && kWindow >= 64,
                "event wheel window must be a power of two >= 64");

  static bool earlier(const Entry& a, const Entry& b) noexcept {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  std::uint32_t acquire_ticket() {
    if (!free_tickets_.empty()) [[likely]] {
      const std::uint32_t ticket = free_tickets_.back();
      free_tickets_.pop_back();
      return ticket;
    }
    return new_ticket();
  }
  std::uint32_t new_ticket();
  /// Files a filled ticket under `when`: its bucket, or the overflow heap.
  void enqueue(SimTime when, std::uint32_t ticket);

  /// Earliest bucketed timestamp, or kNoTime if no bucket holds an event.
  SimTime wheel_next() const noexcept;
  void reset_bucket(std::size_t b) noexcept;

  void remove_top() noexcept;
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;

  std::vector<Bucket> buckets_;             // kWindow buckets, one time each
  std::array<std::uint64_t, kWords> occ_{}; // bit b: bucket b holds events
  std::vector<Entry> heap_;                 // beyond-window overflow
  std::vector<Action> actions_;             // indexed by ticket
  std::vector<std::uint32_t> free_tickets_;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  SimTime cursor_ = 0;                      // last popped time = window base
  std::uint64_t wheel_scheduled_ = 0;
  std::uint64_t heap_scheduled_ = 0;
};

}  // namespace ddpm::netsim
