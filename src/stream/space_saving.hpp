// Space-Saving top-K heavy-hitter summary (Metwally, Agrawal & El Abbadi).
//
// Tracks at most `capacity` candidate keys with guaranteed bounds:
//
//   count(k) - error(k) <= true count(k) <= count(k)      (monitored keys)
//   any key with true count > N / capacity is monitored    (N = stream weight)
//
// Implementation: a min-heap over the monitored counts (4-ary, like the
// event wheel's overflow heap) plus a linear-probing open-addressing index
// with backward-shift deletion, all over flat preallocated arrays — offer() is
// DDPM_HOT: zero allocation, no virtual dispatch, no locking, no
// hardware division (power-of-two table masks, constant heap arity).
// Heap entries and index slots carry reciprocal positions so every swap,
// eviction and backward shift is O(1) pointer maintenance.
//
// Query-side helpers (top(), estimate()) are cold and may allocate.
#pragma once

#include <cstdint>
#include <vector>

#include "core/hot_path.hpp"

namespace ddpm::stream {

/// One monitored key. `idx_slot` is the key's slot in the probing table
/// (kept in sync by heap swaps), so evictions never search.
struct DDPM_HOT_STATE SsSlot {
  std::uint64_t count = 0;
  std::uint64_t error = 0;
  std::uint32_t key = 0;
  std::uint32_t idx_slot = 0;
};
DDPM_HOT_LAYOUT(SsSlot, 24, 8);

/// One probing-table slot; heap_pos < 0 means empty.
struct DDPM_HOT_STATE SsIndexSlot {
  std::uint32_t key = 0;
  std::int32_t heap_pos = -1;
};
DDPM_HOT_LAYOUT(SsIndexSlot, 8, 4);

class SpaceSavingTopK {
 public:
  struct Item {
    std::uint32_t key = 0;
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };

  SpaceSavingTopK(std::uint32_t capacity, std::uint64_t seed);

  /// Feeds `w` occurrences of `key` into the summary.
  DDPM_HOT void offer(std::uint32_t key, std::uint64_t w = 1) noexcept;

  /// The k heaviest monitored keys, sorted by count descending (key
  /// ascending on ties — deterministic output for reports).
  std::vector<Item> top(std::size_t k) const;

  /// The single heaviest monitored key without allocating (linear scan of
  /// the summary); a zero-count Item while the summary is empty.
  Item top1() const noexcept;

  /// Monitored count for `key`; 0 when the key is not monitored. An upper
  /// bound on the true count (true >= estimate - error of that entry).
  std::uint64_t estimate(std::uint32_t key) const noexcept;

  /// Smallest monitored count — the eviction threshold; also the maximum
  /// undercount of any UNmonitored key. 0 while the summary has room.
  std::uint64_t min_count() const noexcept;

  std::uint64_t total() const noexcept { return total_; }
  std::size_t size() const noexcept { return heap_.size(); }
  std::uint32_t capacity() const noexcept { return capacity_; }

  std::size_t memory_bytes() const noexcept {
    return heap_.capacity() * sizeof(SsSlot) +
           table_.size() * sizeof(SsIndexSlot);
  }

  void clear() noexcept;

 private:
  static constexpr std::uint32_t kArity = 4;

  DDPM_HOT std::uint32_t home(std::uint32_t key) const noexcept;
  DDPM_HOT std::int32_t find(std::uint32_t key) const noexcept;
  /// Inserts `key` into the probing table, returning the claimed slot.
  DDPM_HOT std::uint32_t claim(std::uint32_t key) noexcept;
  /// Removes table slot `t` with backward-shift compaction.
  DDPM_HOT void vacate(std::uint32_t t) noexcept;
  /// Restores heap order downward/upward from `pos` after a count change.
  DDPM_HOT void sink(std::uint32_t pos) noexcept;
  DDPM_HOT void swim(std::uint32_t pos) noexcept;
  DDPM_HOT void swap_slots(std::uint32_t a, std::uint32_t b) noexcept;

  std::uint32_t capacity_;
  std::uint32_t table_mask_;  // table size - 1 (power of two)
  std::uint64_t seed_;
  std::uint64_t total_ = 0;
  std::vector<SsSlot> heap_;        // min-heap on count
  std::vector<SsIndexSlot> table_;  // linear probing, backward-shift delete
};

}  // namespace ddpm::stream
