// Chrome trace_event emitter: scoped-duration spans, instant events, and
// counter tracks, ring-buffered and flushed to a sink as JSON that
// chrome://tracing and Perfetto open directly.
//
// Timestamps come from the owning simulator's clock (register it with
// set_clock); one simulation tick renders as one microsecond, so a 50-tick
// link hop reads as 50 µs on the timeline. Events need not be recorded in
// ts order (a link-transmission span is recorded when its packet is
// enqueued, and may start later); flush() emits the retained events sorted
// by ts, recording order breaking ties. The ring buffer overwrites the
// OLDEST-recorded events when full (the tail of a run is usually the
// interesting part of a DDoS timeline) and counts what it dropped.
//
// Hot-path cost: every recording call starts with the `enabled_` test, and
// event names/arg keys are captured as `const char*` — callers must pass
// string literals (or otherwise immortal strings) so recording never
// copies or allocates. Rendering happens only in flush().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace ddpm::telemetry {

class Tracer {
 public:
  /// `ring_capacity` bounds retained events; 0 is clamped to 1.
  explicit Tracer(std::size_t ring_capacity = std::size_t{1} << 16);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Registers the simulation clock the events are stamped with. The
  /// pointee must outlive the tracer's recording phase.
  void set_clock(const std::uint64_t* ticks) noexcept { clock_ = ticks; }
  std::uint64_t now() const noexcept { return clock_ != nullptr ? *clock_ : 0; }

  /// Runtime gate: a disabled tracer records nothing.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Timeline naming (rendered as Chrome "M" metadata events on flush).
  void set_process_name(std::uint32_t pid, std::string name);
  void set_thread_name(std::uint32_t pid, std::uint32_t tid, std::string name);

  /// Complete ("X") event covering [start, end]. `name` must be immortal.
  void complete(const char* name, std::uint32_t pid, std::uint32_t tid,
                std::uint64_t start, std::uint64_t end) {
    if (enabled_) record('X', name, pid, tid, start, end - start, nullptr, 0);
  }
  /// Instant ("i") event at the current clock, with an optional numeric arg.
  void instant(const char* name, std::uint32_t pid, std::uint32_t tid,
               const char* arg_key = nullptr, double arg = 0.0) {
    if (enabled_) record('i', name, pid, tid, now(), 0, arg_key, arg);
  }
  /// Counter ("C") track sample at the current clock.
  void counter(const char* name, std::uint32_t pid, double value) {
    if (enabled_) record('C', name, pid, 0, now(), 0, "value", value);
  }

  /// Events currently retained / recorded in total / evicted by the ring.
  std::size_t retained() const noexcept;
  std::uint64_t recorded() const noexcept { return recorded_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Renders the retained events as one Chrome trace JSON object, in
  /// nondecreasing ts order (stable: recording order breaks ties).
  void flush(std::ostream& out) const;
  /// flush() into a string (tests, small traces).
  std::string flush_to_string() const;

  /// Discards retained events; names and the clock binding survive.
  void clear() noexcept;

 private:
  struct Event {
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    const char* name = nullptr;
    const char* arg_key = nullptr;
    double arg = 0.0;
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    char phase = 'i';
  };

  void record(char phase, const char* name, std::uint32_t pid,
              std::uint32_t tid, std::uint64_t ts, std::uint64_t dur,
              const char* arg_key, double arg);

  std::vector<Event> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;  // slot the next event lands in
  bool wrapped_ = false;
  bool enabled_ = true;
  const std::uint64_t* clock_ = nullptr;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::pair<std::uint32_t, std::string>> process_names_;
  std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>, std::string>>
      thread_names_;
};

/// RAII scoped-duration span: records a complete event from construction to
/// destruction against the tracer's clock. Null tracer (or disabled) makes
/// the span inert.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const char* name, std::uint32_t pid,
            std::uint32_t tid) noexcept
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        name_(name),
        pid_(pid),
        tid_(tid),
        start_(tracer_ != nullptr ? tracer_->now() : 0) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (tracer_ != nullptr) {
      tracer_->complete(name_, pid_, tid_, start_, tracer_->now());
    }
  }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint32_t pid_;
  std::uint32_t tid_;
  std::uint64_t start_;
};

}  // namespace ddpm::telemetry
