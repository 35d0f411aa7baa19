#include "telemetry/trace.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace ddpm::telemetry {

Tracer::Tracer(std::size_t ring_capacity)
    : capacity_(std::max<std::size_t>(1, ring_capacity)) {
  // Grow lazily up to capacity_: short runs never pay for the full ring.
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void Tracer::set_process_name(std::uint32_t pid, std::string name) {
  process_names_.emplace_back(pid, std::move(name));
}

void Tracer::set_thread_name(std::uint32_t pid, std::uint32_t tid,
                             std::string name) {
  thread_names_.emplace_back(std::make_pair(pid, tid), std::move(name));
}

std::size_t Tracer::retained() const noexcept {
  return wrapped_ ? capacity_ : ring_.size();
}

void Tracer::record(char phase, const char* name, std::uint32_t pid,
                    std::uint32_t tid, std::uint64_t ts, std::uint64_t dur,
                    const char* arg_key, double arg) {
  ++recorded_;
  Event e;
  e.ts = ts;
  e.dur = dur;
  e.name = name;
  e.arg_key = arg_key;
  e.arg = arg;
  e.pid = pid;
  e.tid = tid;
  e.phase = phase;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
    return;
  }
  // Ring is full: overwrite the oldest slot, keep the most recent window.
  // (Branch, not modulo: capacity_ is runtime-chosen, and a compare-select
  // beats the divider on this per-event path.)
  ring_[next_] = e;
  next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
  wrapped_ = true;
  ++dropped_;
}

void Tracer::clear() noexcept {
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
  recorded_ = 0;
  dropped_ = 0;
}

namespace {

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

void write_number(std::ostream& out, double v) {
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << v;
  out << tmp.str();
}

}  // namespace

void Tracer::flush(std::ostream& out) const {
  out << "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {"
      << "\"recorded\": " << recorded_ << ", \"dropped\": " << dropped_
      << "},\n\"traceEvents\": [";
  bool first = true;
  const auto comma = [&]() {
    out << (first ? "\n" : ",\n");
    first = false;
  };
  for (const auto& [pid, name] : process_names_) {
    comma();
    out << R"({"name": "process_name", "ph": "M", "ts": 0, "pid": )" << pid
        << R"(, "tid": 0, "args": {"name": )";
    write_json_string(out, name);
    out << "}}";
  }
  for (const auto& [key, name] : thread_names_) {
    comma();
    out << R"({"name": "thread_name", "ph": "M", "ts": 0, "pid": )"
        << key.first << R"(, "tid": )" << key.second
        << R"(, "args": {"name": )";
    write_json_string(out, name);
    out << "}}";
  }
  // Recording order first (the oldest retained event sits at `next_` once
  // the ring has wrapped), then a stable sort by timestamp.
  const std::size_t count = retained();
  const std::size_t start = wrapped_ ? next_ : 0;
  std::vector<const Event*> order;
  order.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    order.push_back(&ring_[(start + i) % capacity_]);
  }
  std::stable_sort(
      order.begin(), order.end(),
      [](const Event* a, const Event* b) { return a->ts < b->ts; });
  for (const Event* event : order) {
    const Event& e = *event;
    comma();
    out << "{\"name\": \"" << e.name << "\", \"ph\": \"" << e.phase
        << "\", \"ts\": " << e.ts << ", \"pid\": " << e.pid
        << ", \"tid\": " << e.tid;
    if (e.phase == 'X') out << ", \"dur\": " << e.dur;
    if (e.phase == 'i') out << ", \"s\": \"t\"";
    if (e.arg_key != nullptr) {
      out << ", \"args\": {\"" << e.arg_key << "\": ";
      write_number(out, e.arg);
      out << "}";
    }
    out << "}";
  }
  out << "\n]\n}\n";
}

std::string Tracer::flush_to_string() const {
  std::ostringstream os;
  flush(os);
  return os.str();
}

}  // namespace ddpm::telemetry
