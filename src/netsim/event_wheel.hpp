// Calendar-queue event wheel: O(1) schedule/pop for the regular cadences
// that dominate a link-clocked simulation, with a 4-ary-heap overflow for
// irregular timers.
//
// The 4-ary heap in event_queue.hpp pays O(log n) sifts on every schedule
// and pop even when — as in steady-state switch forwarding — almost every
// event lands within a few hundred ticks of the clock. The wheel exploits
// that locality: timestamps inside the near-future window
// [cursor, cursor + W) go to a per-timestamp bucket (append = schedule,
// indexed read = pop; both O(1)), and only timestamps beyond the window
// fall back to the heap. The window slides as the clock advances, so a
// periodic event with period < W never touches the heap at all.
//
// Semantics are EventQueue's, exactly — the differential stress test
// (tests/test_event_wheel.cpp) pins pop-order equality against it:
//   * FIFO among simultaneous events. Within a bucket, append order is
//     scheduling order. Across the bucket/heap split, every heap entry for
//     a time T was necessarily scheduled while T was still beyond the
//     window — strictly before any bucket entry for T existed (the window
//     only slides forward) — so popping heap-before-bucket on a time tie
//     replays global scheduling order.
//   * Ticket/generation EventIds and O(1) tombstone cancellation, with the
//     same compaction policy (sweep when the dead outnumber the living).
//   * The monotonic-clock contract (schedule at or after the last popped
//     time, checked fatal) — which is also what keeps the window math
//     sound: `when - cursor` never underflows.
//
// The wheel's next-event scan walks an occupancy bitmap (one bit per
// bucket, W/64 words, circularly from the cursor), so a sparse queue costs
// a handful of word tests per pop rather than a bucket-array sweep.
// pop_due() is the one pop body: a single scan and heap prune both find
// the earliest event and test it against the caller's horizon, so the
// Simulator loop pays for them once per event, not twice (peek, then pop).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "core/hot_path.hpp"
#include "netsim/event_queue.hpp"
#include "netsim/inline_action.hpp"

namespace ddpm::netsim {

class EventWheel {
 public:
  using Action = InlineAction;

  /// Bucket count (= window width in ticks). Must be a power of two. The
  /// default covers the cluster model's forwarding cadence (per-hop delays
  /// of a few hundred ns) and every per-tick link clock with headroom.
  static constexpr std::size_t kDefaultWindow = 1024;

  explicit EventWheel(std::size_t window = kDefaultWindow);

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
  EventId schedule(SimTime when, F&& action) {
    DDPM_CHECK(when >= cursor_, "event scheduled in the simulated past");
    const std::uint32_t ticket = acquire_ticket();
    tickets_[ticket].action.emplace(std::forward<F>(action));
    return enqueue(when, ticket);
  }

  /// Cancels a pending event. Returns false if it already fired or was
  /// cancelled. O(1): tombstones the ticket; the bucket/heap entry is
  /// skipped when the scan reaches it.
  bool cancel(EventId id);

  bool empty() const noexcept { return live_ == 0; }
  std::size_t size() const noexcept { return live_; }

  /// Time of the earliest pending event. Precondition: !empty(). Prunes
  /// tombstones off bucket heads and the heap top, hence non-const.
  SimTime next_time();

  /// Time of the most recently popped event (0 before the first pop).
  SimTime last_popped_time() const noexcept { return cursor_; }

  /// If the earliest pending event is due at or before `until`
  /// (inclusive), removes it into `out`, advances the clock watermark to
  /// its time and returns true. Otherwise — including when the wheel is
  /// empty — leaves `out` untouched and returns false. A heap entry wins a
  /// same-time tie with a bucket entry; tombstones met on the way are
  /// released.
  bool pop_due(SimTime until, Fired& out);

  /// Removes the earliest event and returns (time, action).
  /// Precondition: !empty().
  std::pair<SimTime, Action> pop();

  /// Discards all pending events and resets the clock watermark.
  /// Outstanding EventIds are invalidated, never recycled as-is.
  void clear();

  /// Pre-sizes the ticket pool and overflow heap for `n` simultaneous
  /// pending events, and every bucket for a burst of same-tick events
  /// proportional to `n`.
  void reserve(std::size_t n);

  /// Cancelled events whose bucket/heap entries have not been swept yet.
  std::size_t tombstone_count() const noexcept { return tombstones_; }

  /// Window width in ticks (= bucket count).
  std::size_t window() const noexcept { return mask_ + 1; }

  /// Observability for tests and the crossover discussion in
  /// docs/PERFORMANCE.md: how many schedules took the O(1) bucket path vs
  /// the O(log n) overflow heap.
  std::uint64_t wheel_scheduled() const noexcept { return wheel_scheduled_; }
  std::uint64_t heap_scheduled() const noexcept { return heap_scheduled_; }

 private:
  /// Overflow-heap entry; identical shape to EventQueue's (the layout
  /// certification pins both).
  struct DDPM_HOT_STATE Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t ticket;
  };
  DDPM_HOT_LAYOUT(Entry, 24, 8);

  struct Ticket {
    Action action;
    std::uint32_t generation = 0;
    bool live = false;
  };

  /// One near-future timestamp's events, in scheduling order. `head`
  /// advances on pop; storage is recycled (capacity retained) when the
  /// bucket drains, so steady-state cadences never allocate.
  struct Bucket {
    std::vector<std::uint32_t> tickets;
    std::uint32_t head = 0;
  };

  static constexpr std::size_t kArity = 4;
  static constexpr SimTime kNoTime = ~SimTime{0};

  static bool earlier(const Entry& a, const Entry& b) noexcept {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }
  static EventId make_id(std::uint32_t ticket, std::uint32_t gen) noexcept {
    return (EventId(ticket) << 32) | gen;
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
  void release_ticket(std::uint32_t ticket) noexcept;
  /// Files a filled ticket under `when`: its bucket, or the overflow heap.
  EventId enqueue(SimTime when, std::uint32_t ticket);

  /// Earliest live bucketed timestamp (pruning dead heads and draining
  /// dead-only buckets along the way), or kNoTime if the wheel is empty.
  SimTime wheel_next() noexcept;
  void reset_bucket(std::size_t b) noexcept;

  void prune_dead_top() noexcept;
  void remove_top() noexcept;
  void compact();
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;

  std::size_t mask_;                  // window - 1
  std::vector<Bucket> buckets_;       // window buckets, one timestamp each
  std::vector<std::uint64_t> occ_;    // bit b: bucket b non-(drained)
  std::vector<Entry> heap_;           // beyond-window overflow
  std::vector<Ticket> tickets_;
  std::vector<std::uint32_t> free_tickets_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::size_t pending_entries_ = 0;   // live + tombstoned, both stores
  SimTime cursor_ = 0;                // last popped time = window base
  std::uint64_t wheel_scheduled_ = 0;
  std::uint64_t heap_scheduled_ = 0;
};

}  // namespace ddpm::netsim
