// Simulation kernel: owns the clock and the event wheel, and drives the
// model by firing events in (time, scheduling order).
//
// The wheel (netsim/event_wheel.hpp) is the tree's one scheduler: the
// cluster Switch's forwarding events are regular short-horizon cadences,
// which it schedules and pops in O(1); irregular timers (attack onsets,
// benign gaps, long backoffs) overflow to its embedded 4-ary heap. Events
// are never cancelled: a model whose timer may become moot (TCP's client
// give-up timer) checks its own state when the timer fires.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>

#include "netsim/event_wheel.hpp"
#include "telemetry/probes.hpp"

namespace ddpm::netsim {

class Simulator {
 public:
  /// Current simulation time. Monotonically non-decreasing.
  SimTime now() const noexcept { return now_; }

  /// Schedules `action` to fire `delay` ticks from now. The callable is
  /// forwarded into the wheel's slot, never copied into a temporary.
  template <typename F>
  void schedule_in(SimTime delay, F&& action) {
    wheel_.schedule(now_ + delay, std::forward<F>(action));
  }

  /// Schedules `action` at absolute time `when`. `when` must not be in the
  /// past; a past timestamp is clamped to `now()` so the event still fires
  /// (in scheduling order) rather than corrupting the clock. Each clamp is
  /// counted (see clamped_events()): a model that relies on the clamp is
  /// usually mis-computing timestamps, and the counter makes that visible.
  template <typename F>
  void schedule_at(SimTime when, F&& action) {
    if (when < now_) {
      ++clamped_;
      probes_.on_clamp();
      when = now_;
    }
    wheel_.schedule(when, std::forward<F>(action));
  }

  /// Runs until the wheel drains or the clock passes `until`, whichever
  /// comes first. Events stamped exactly `until` still fire; afterwards a
  /// clock behind `until` is advanced to it (unless `until` is the default,
  /// unbounded horizon). Returns the number of events executed.
  std::uint64_t run(SimTime until = std::numeric_limits<SimTime>::max());

  /// Number of events executed since construction.
  std::uint64_t events_executed() const noexcept { return executed_; }

  /// Number of schedule_at() calls whose timestamp was in the past and got
  /// clamped to now(). Zero in a healthy model; see schedule_at().
  std::uint64_t clamped_events() const noexcept { return clamped_; }

  std::size_t pending_count() const noexcept { return wheel_.size(); }

  /// Pre-sizes the event wheel for `n` simultaneous pending events
  /// (grow-once for steady-state workloads).
  void reserve(std::size_t n) { wheel_.reserve(n); }

  /// Attaches an event tracer: the kernel samples heap depth and executed-
  /// event counter tracks into it and binds it to this clock, so RAII spans
  /// recorded anywhere in the model are stamped with simulation time.
  /// Compiled out entirely with DDPM_TELEMETRY=OFF.
  void attach_tracer(telemetry::Tracer* tracer) {
    probes_.attach(tracer);
    if (tracer != nullptr) tracer->set_clock(&now_);
  }

 private:
  EventWheel wheel_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t clamped_ = 0;
  telemetry::KernelProbes probes_;
};

}  // namespace ddpm::netsim
