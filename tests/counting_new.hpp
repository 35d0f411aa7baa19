// Counting global operator new for the zero-allocation steady-state tests.
//
// Defines the replaceable global allocation functions ([new.delete]), so
// include this header from exactly ONE translation unit per test binary.
// Every acquiring form funnels through a counter that is live only while
// `g_count_allocs` is set; releasing forms stay silent (a window may free
// what warm-up allocated — only acquiring memory is a hot-path violation).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

// Interposer state. Plain atomics: the simulator is single-threaded, but
// gtest internals may touch the allocator from other threads in other
// configurations, and relaxed atomics make the gate race-free either way.
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};

inline void note_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t size) {
  note_alloc();
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned(std::size_t size, std::size_t align) {
  note_alloc();
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded != 0 ? rounded : align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Replaceable global allocation functions ([new.delete]): every acquiring
// form funnels through the counter; every releasing form stays silent.
void* operator new(std::size_t size) { return checked_malloc(size); }
void* operator new[](std::size_t size) { return checked_malloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return checked_aligned(size, std::size_t(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return checked_aligned(size, std::size_t(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
