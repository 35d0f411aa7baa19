// Slab: a pool of objects addressed by 4-byte handles.
//
// Both simulation engines park each packet in one slab slot from injection
// to delivery or drop; their queues then move 4-byte handles instead of
// 128-byte packets. A freed slot goes on a freelist and is reused by the
// next acquire(), so after warm-up the slab stops growing and steady-state
// acquire/release never touch the allocator (the freelist's capacity is
// kept at least the slab's, so release() never allocates either).
//
// acquire() may grow the slab and so invalidates every reference into it.
// Code that hands a slab object to a callback which might acquire (a
// delivery hook that injects) must take() the object out first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/check.hpp"

namespace ddpm::core {

template <typename T>
class Slab {
 public:
  using Handle = std::uint32_t;

  /// Pre-sizes the slab and its freelist for `n` live objects.
  void reserve(std::size_t n) {
    slots_.reserve(n);
    free_.reserve(slots_.capacity());
  }

  /// Moves `value` into a free slot (the most recently released one, else
  /// a new slot) and returns its handle.
  Handle acquire(T&& value) {
    if (!free_.empty()) {
      const Handle h = free_.back();
      free_.pop_back();
      slots_[h] = std::move(value);
      return h;
    }
    const auto h = Handle(slots_.size());
    slots_.push_back(std::move(value));
    free_.reserve(slots_.capacity());
    return h;
  }

  /// Returns the slot to the freelist; its object stays in place until
  /// the slot is reused.
  void release(Handle h) noexcept {
    DDPM_DCHECK(h < slots_.size(), "Slab: handle out of range");
    free_.push_back(h);
  }

  /// Moves the object out of its slot and releases the slot.
  T take(Handle h) {
    T value = std::move((*this)[h]);
    release(h);
    return value;
  }

  T& operator[](Handle h) noexcept {
    DDPM_DCHECK(h < slots_.size(), "Slab: handle out of range");
    return slots_[h];
  }

 private:
  std::vector<T> slots_;
  std::vector<Handle> free_;
};

}  // namespace ddpm::core
