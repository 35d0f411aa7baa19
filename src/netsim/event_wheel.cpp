#include "netsim/event_wheel.hpp"

#include <algorithm>
#include <bit>

namespace ddpm::netsim {

EventWheel::EventWheel() : buckets_(kWindow) {}

DDPM_HOT void EventWheel::enqueue(SimTime when, std::uint32_t ticket) {
  if (when - cursor_ <= kMask) {
    // Near future: O(1) append to the timestamp's bucket. No sequence
    // number is materialized — append order IS scheduling order, and heap
    // entries for the same instant always predate bucket ones (see the
    // ordering argument in the header).
    const std::size_t b = std::size_t(when) & kMask;
    // Bucket capacity is pre-sized by reserve() and retained across drains
    // (reset_bucket clears, never shrinks), so this push grows only on a
    // burst deeper than any before it.
    buckets_[b].tickets.push_back(ticket);
    occ_[b >> 6] |= std::uint64_t{1} << (b & 63);
    ++wheel_scheduled_;
  } else {
    heap_.push_back(Entry{when, next_seq_++, ticket});
    sift_up(heap_.size() - 1);
    ++heap_scheduled_;
  }
  ++size_;
}

DDPM_HOT SimTime EventWheel::wheel_next() const noexcept {
  const std::size_t b0 = std::size_t(cursor_) & kMask;
  const std::size_t w0 = b0 >> 6;
  const unsigned off = unsigned(b0 & 63);
  // Circular bitmap scan from the cursor's bucket: whole words in wrap
  // order, with the cursor word split so its below-cursor bits (times near
  // cursor + kWindow) are visited last. Bit order within this traversal is
  // ascending time order, and every set bit marks a non-empty bucket.
  std::uint64_t w = occ_[w0] & (~std::uint64_t{0} << off);
  for (std::size_t i = 0;;) {
    if (w != 0) {
      const std::size_t wi = (w0 + i) & (kWords - 1);
      const std::size_t b = wi * 64 + std::size_t(__builtin_ctzll(w));
      return cursor_ + SimTime((b - b0) & kMask);
    }
    ++i;
    if (i > kWords) return kNoTime;
    w = (i == kWords) ? occ_[w0] & ~(~std::uint64_t{0} << off)
                      : occ_[(w0 + i) & (kWords - 1)];
  }
}

void EventWheel::reset_bucket(std::size_t b) noexcept {
  Bucket& bk = buckets_[b];
  bk.tickets.clear();  // capacity retained: steady cadences never allocate
  bk.head = 0;
  occ_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
}

DDPM_HOT bool EventWheel::pop_due(SimTime until, Fired& out) {
  if (size_ == 0) return false;
  const SimTime tw = wheel_next();
  std::uint32_t ticket;
  // Heap wins ties: its entries for an instant were scheduled while that
  // instant was still out of window, i.e. before any bucket entry for it.
  if (!heap_.empty() && heap_.front().when <= tw) {
    const Entry top = heap_.front();
    if (top.when > until) return false;
    DDPM_DCHECK(top.when >= cursor_, "event time went backwards");
    cursor_ = top.when;
    ticket = top.ticket;
    remove_top();
  } else {
    // size_ != 0 and the heap holds nothing earlier: tw is a bucket.
    if (tw > until) return false;
    const std::size_t b = std::size_t(tw) & kMask;
    Bucket& bk = buckets_[b];
    ticket = bk.tickets[bk.head];
    ++bk.head;
    cursor_ = tw;  // slides the window forward
    if (bk.head == bk.tickets.size()) reset_bucket(b);
  }
  out.when = cursor_;
  out.action = std::move(actions_[ticket]);  // leaves the slot empty
  free_tickets_.push_back(ticket);
  --size_;
  return true;
}

std::pair<SimTime, EventWheel::Action> EventWheel::pop() {
  DDPM_CHECK(size_ != 0, "pop on empty wheel");
  Fired fired;
  pop_due(kNoTime, fired);
  return {fired.when, std::move(fired.action)};
}

void EventWheel::reserve(std::size_t n) {
  heap_.reserve(n);
  actions_.reserve(n);
  free_tickets_.reserve(n);
  // Events sharing one tick: a bucket that first meets a deeper burst
  // mid-run would grow inside the steady state. The deepest buckets of the
  // cluster floods were 12, 23 and 46 events for 768, 3072 and 12288
  // reserved events (torus 8x8, 16x16, 32x32); n/128, at least 16, covers
  // them with headroom.
  const std::size_t depth = std::bit_ceil(std::max<std::size_t>(16, n / 128));
  for (Bucket& bk : buckets_) bk.tickets.reserve(depth);
}

std::uint32_t EventWheel::new_ticket() {
  DDPM_CHECK(actions_.size() < (std::size_t(1) << 32),
             "event ticket space exhausted");
  actions_.emplace_back();
  return std::uint32_t(actions_.size() - 1);
}

void EventWheel::remove_top() noexcept {
  const std::size_t last = heap_.size() - 1;
  if (last > 0) {
    heap_.front() = heap_[last];
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
}

void EventWheel::sift_up(std::size_t i) noexcept {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventWheel::sift_down(std::size_t i) noexcept {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t fence = first + kArity < n ? first + kArity : n;
    for (std::size_t c = first + 1; c < fence; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

}  // namespace ddpm::netsim
