// Flat ring buffer: the allocation-free replacement for std::deque in
// per-port/per-VC queues.
//
// std::deque allocates a block map per queue plus a block per few dozen
// elements, and push/pop churn crosses block boundaries in steady state.
// A wormhole network has (P+1)*V input queues per node — thousands of
// deques on an 8x8 torus — so the hot loop paid scattered allocator
// traffic for buffers whose depth is bounded by credits anyway. RingBuffer
// keeps elements in one contiguous slab with head/count indices: pushes
// and pops in steady state touch no allocator, and a reserve() up front
// (credit depth for switch ports) makes the queue provably allocation-free
// — which is exactly what the hot-no-alloc analyzer rule and the
// zero-allocation ctest assert.
//
// Growth (unbounded injection queues only) doubles into a fresh slab with
// the elements rotated back to offset zero; amortized O(1), and never on
// the credit-bounded switch-port queues.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/check.hpp"

namespace ddpm::core {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;

  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Pre-sizes the slab so pushes up to `n` outstanding elements never
  /// allocate. Call once at construction time (hot code must not grow).
  void reserve(std::size_t n) {
    if (n > slots_.size()) grow(n);
  }

  T& front() {
    DDPM_DCHECK(count_ > 0, "front() on empty ring");
    return slots_[head_];
  }
  const T& front() const {
    DDPM_DCHECK(count_ > 0, "front() on empty ring");
    return slots_[head_];
  }

  /// The element `i` places behind the front (0 is front()).
  const T& nth(std::size_t i) const {
    DDPM_DCHECK(i < count_, "nth() past the back of the ring");
    std::size_t idx = head_ + i;
    if (idx >= slots_.size()) idx -= slots_.size();
    return slots_[idx];
  }

  void push_back(T&& value) {
    if (count_ == slots_.size()) grow(count_ == 0 ? 4 : count_ * 2);
    std::size_t tail = head_ + count_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = std::move(value);
    ++count_;
  }

  void pop_front() {
    DDPM_DCHECK(count_ > 0, "pop_front() on empty ring");
    slots_[head_] = T{};  // release owned resources (e.g. shared_ptr)
    ++head_;
    if (head_ == slots_.size()) head_ = 0;
    --count_;
  }

  void clear() {
    while (count_ > 0) pop_front();
    head_ = 0;
  }

 private:
  void grow(std::size_t target) {
    std::vector<T> bigger;
    bigger.reserve(target);
    for (std::size_t i = 0; i < count_; ++i) {
      std::size_t idx = head_ + i;
      if (idx >= slots_.size()) idx -= slots_.size();
      bigger.push_back(std::move(slots_[idx]));
    }
    bigger.resize(target);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace ddpm::core
