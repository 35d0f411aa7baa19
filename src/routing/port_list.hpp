// Fixed-capacity candidate-port list — the allocation-free return type of
// Router::candidates / fallback_candidates.
//
// Candidate sets are tiny by construction: one port per hypercube
// dimension, two per Cartesian dimension, and the misroute fallback is
// bounded by the switch radix. Returning std::vector put a heap
// allocation on every per-flit routing decision (the single largest
// class of hot-no-alloc findings in the analyzer baseline); PortList is
// an inline array with the same iteration/query surface, so the wormhole
// loop's per-head routing call and the CDG verifier's exhaustive sweeps
// pay zero allocator traffic.
//
// The capacity is the switch radix bound: no supported topology exceeds
// 32 ports per switch — a Cartesian topology has 2 * Coord::kMaxDims
// ports at most, a hypercube kMaxDims — which is also what lets
// route::productive_mask (routing/dor.hpp) carry one bit per port in 32
// bits. Overflow is a DDPM_CHECK, not silent truncation — a fabricated
// port set corrupts routing, it must abort loudly.
//
// Only the first size() entries are ever written or read, so the array is
// left uninitialized: zero-filling its 128 bytes (a `rep stos` at -O2)
// cost about as much as the productive-port computation that fills it.
#pragma once

#include <cstddef>
#include <initializer_list>

#include "core/check.hpp"
#include "topology/topology.hpp"

namespace ddpm::route {

class PortList {
 public:
  using value_type = topo::Port;
  using iterator = topo::Port*;
  using const_iterator = const topo::Port*;

  /// The largest switch radix of any supported topology; see the file
  /// comment.
  static constexpr std::size_t kCapacity = 32;

  constexpr PortList() noexcept = default;
  constexpr PortList(std::initializer_list<topo::Port> ports) {
    for (const topo::Port p : ports) push_back(p);
  }

  constexpr void push_back(topo::Port p) {
    DDPM_CHECK(size_ < kCapacity, "PortList overflow: radix exceeds 32");
    ports_[size_++] = p;
  }

  /// vector-compatible "reset to n copies of p" (the congestion tie-break
  /// keeps best_ports.assign(1, p)).
  constexpr void assign(std::size_t n, topo::Port p) {
    DDPM_CHECK(n <= kCapacity, "PortList overflow: radix exceeds 32");
    size_ = n;
    for (std::size_t i = 0; i < n; ++i) ports_[i] = p;
  }

  constexpr void clear() noexcept { size_ = 0; }

  /// Removes every occurrence of `banned`, preserving order (the
  /// turn-model routers' 180-degree-reversal ban).
  constexpr void erase_value(topo::Port banned) noexcept {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      if (ports_[i] != banned) ports_[kept++] = ports_[i];
    }
    size_ = kept;
  }

  constexpr bool empty() const noexcept { return size_ == 0; }
  constexpr std::size_t size() const noexcept { return size_; }

  constexpr topo::Port front() const {
    DDPM_DCHECK(size_ > 0, "PortList::front on empty list");
    return ports_[0];
  }
  constexpr topo::Port operator[](std::size_t i) const {
    DDPM_DCHECK(i < size_, "PortList index out of range");
    return ports_[i];
  }

  constexpr iterator begin() noexcept { return ports_; }
  constexpr iterator end() noexcept { return ports_ + size_; }
  constexpr const_iterator begin() const noexcept { return ports_; }
  constexpr const_iterator end() const noexcept { return ports_ + size_; }

  friend constexpr bool operator==(const PortList& a,
                                   const PortList& b) noexcept {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a.ports_[i] != b.ports_[i]) return false;
    }
    return true;
  }

 private:
  topo::Port ports_[kCapacity];  // entries past size_ are indeterminate
  std::size_t size_ = 0;
};

}  // namespace ddpm::route
