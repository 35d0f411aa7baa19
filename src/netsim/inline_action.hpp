// Allocation-free type-erased callable for the event wheel's hot path.
//
// std::function heap-allocates any capture larger than its tiny internal
// buffer (16 bytes on libstdc++), which put one malloc/free pair on every
// scheduled event. InlineAction stores the callable in a fixed 48-byte
// inline buffer — large enough for every scheduling site in the simulator
// (`this` plus a few scalars) — and *refuses to compile* anything bigger,
// so an accidental fat capture is a build error at the offending call
// site, not a silent allocation. Callables only need to be movable, so
// move-only captures (unique_ptr, Rng by value) work where std::function
// would reject them.
//
// Invoking is one indirect call. Moving and destroying cost nothing extra
// for the callables the simulator schedules: a trivially copyable,
// trivially destructible capture (`[this, port]`, `[this]`, `[this, node]`)
// gets null relocate/destroy entries, so a move copies the fixed-size
// buffer and a reset only clears the ops pointer. Any other capture
// (unique_ptr, a counting type) goes through its own move constructor and
// destructor, exactly once each per hand-off.
//
// The contract the event wheel relies on:
//   * construction, move, destruction never allocate and never throw;
//   * a moved-from InlineAction is empty (operator bool == false);
//   * invoking an empty action is a DCHECK failure, not UB.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "core/check.hpp"

namespace ddpm::netsim {

class InlineAction {
 public:
  /// Inline capture budget. 48 bytes = `this` + five 64-bit scalars, with
  /// headroom; chosen so Entry+ops pointer stays within one cache line.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// True when F can be stored inline (and therefore scheduled at all).
  /// Exposed so call sites and tests can static_assert their captures fit.
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(std::decay_t<F>) <= kInlineSize &&
      alignof(std::decay_t<F>) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  /// True when F moves as a plain byte copy and needs no destructor call:
  /// the simulator's own captures, which the scheduling sites assert.
  template <typename F>
  static constexpr bool is_trivial =
      std::is_trivially_copyable_v<std::decay_t<F>> &&
      std::is_trivially_destructible_v<std::decay_t<F>>;

  constexpr InlineAction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineAction>>>
  InlineAction(F&& f) noexcept(  // NOLINT(google-explicit-constructor)
      std::is_nothrow_constructible_v<std::decay_t<F>, F&&>) {
    construct(std::forward<F>(f));
  }

  InlineAction(InlineAction&& other) noexcept { take(other); }

  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  ~InlineAction() { reset(); }

  /// Replaces the held callable with `f`, built in place: no temporary
  /// InlineAction, no relocation. An InlineAction argument is moved in.
  template <typename F>
  void emplace(F&& f) noexcept(
      std::is_nothrow_constructible_v<std::decay_t<F>, F&&>) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineAction>) {
      *this = std::forward<F>(f);
    } else {
      reset();
      construct(std::forward<F>(f));
    }
  }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() {
    DDPM_DCHECK(ops_ != nullptr, "invoking an empty InlineAction");
    ops_->invoke(storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct at dst, then destroy the source; null = byte copy.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;  // null = trivially destructible
  };

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "InlineAction requires a nullary void() callable");
    static_assert(sizeof(Fn) <= kInlineSize,
                  "capture exceeds InlineAction's 48-byte inline buffer; "
                  "park bulky state (e.g. a Packet) in the owning object "
                  "and capture a handle to it instead");
    static_assert(alignof(Fn) <= kInlineAlign,
                  "capture alignment exceeds InlineAction's buffer");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "InlineAction callables must be nothrow-movable");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &kOpsFor<Fn>;
  }

  template <typename Fn>
  static Fn* as(void* p) noexcept {
    return std::launder(reinterpret_cast<Fn*>(p));
  }

  template <typename Fn>
  static void do_invoke(void* p) {
    (*as<Fn>(p))();
  }
  template <typename Fn>
  static void do_relocate(void* dst, void* src) noexcept {
    Fn* s = as<Fn>(src);
    ::new (dst) Fn(std::move(*s));
    s->~Fn();
  }
  template <typename Fn>
  static void do_destroy(void* p) noexcept {
    as<Fn>(p)->~Fn();
  }

  template <typename Fn>
  static constexpr Ops kOpsFor =
      is_trivial<Fn> ? Ops{&do_invoke<Fn>, nullptr, nullptr}
                     : Ops{&do_invoke<Fn>, &do_relocate<Fn>, &do_destroy<Fn>};

  void take(InlineAction& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.ops_->relocate != nullptr) {
        other.ops_->relocate(storage_, other.storage_);
      } else {
        // Trivially copyable: the byte copy creates the object (C++20
        // implicit object creation); `as` launders the pointer.
        std::memcpy(storage_, other.storage_, kInlineSize);
      }
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace ddpm::netsim
