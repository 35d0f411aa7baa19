#include "stream/flow_analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/check.hpp"
#include "core/parallel_runner.hpp"

namespace ddpm::stream {

namespace {

void append_top(std::ostringstream& os, const char* name,
                const std::vector<TopEntry>& entries) {
  os << "  \"" << name << "\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i != 0) os << ", ";
    os << "{\"key\": " << entries[i].key << ", \"count\": " << entries[i].count
       << ", \"error\": " << entries[i].error << "}";
  }
  os << "]";
}

void append_alarm(std::ostringstream& os, const char* name,
                  const std::optional<netsim::SimTime>& t) {
  os << "  \"" << name << "\": ";
  if (t) {
    os << *t;
  } else {
    os << "null";
  }
  os << ",\n";
}

const FlowAnalyzerConfig& validated(const FlowAnalyzerConfig& config) {
  config.validate();
  return config;
}

}  // namespace

std::string StreamReport::to_json() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6);
  os << "{\n";
  os << "  \"records\": " << records << ",\n";
  os << "  \"packets\": " << packets << ",\n";
  os << "  \"bytes\": " << bytes << ",\n";
  os << "  \"windows\": " << windows << ",\n";
  append_alarm(os, "detection_time", detection_time);
  append_alarm(os, "entropy_alarm", entropy_alarm);
  append_alarm(os, "share_alarm", share_alarm);
  append_alarm(os, "cusum_alarm", cusum_alarm);
  os << "  \"victim_identified\": " << (victim_identified ? "true" : "false")
     << ",\n";
  os << "  \"victim\": " << victim << ",\n";
  os << "  \"victim_share\": " << victim_share << ",\n";
  os << "  \"last_entropy_bits\": " << last_entropy_bits << ",\n";
  os << "  \"cusum_statistic\": " << cusum_statistic << ",\n";
  os << "  \"memory_bytes\": " << memory_bytes << ",\n";
  os << "  \"peak_buffer_bytes\": " << peak_buffer_bytes << ",\n";
  append_top(os, "top_sources", top_sources);
  os << ",\n";
  append_top(os, "top_dests", top_dests);
  os << "\n}\n";
  return os.str();
}

FlowStreamAnalyzer::Shard::Shard(const FlowAnalyzerConfig& config,
                                 std::uint64_t seed)
    : src_cms(config.cms_width, config.cms_depth, seed),
      dst_cms(config.cms_width, config.cms_depth, mix64(seed)),
      src_top(config.topk, seed),
      dst_top(config.topk, mix64(seed)),
      win_dst_top(config.topk, mix64(seed)) {}

std::size_t FlowStreamAnalyzer::Shard::memory_bytes() const noexcept {
  return src_cms.memory_bytes() + dst_cms.memory_bytes() +
         src_top.memory_bytes() + dst_top.memory_bytes() +
         win_dst_top.memory_bytes();
}

void FlowAnalyzerConfig::validate() const {
  const auto reject = [](const char* field, const std::string& rule) {
    throw std::invalid_argument(std::string("FlowAnalyzerConfig: ") + field +
                                " " + rule);
  };
  const auto in_range = [&](const char* field, std::uint64_t value,
                            std::uint64_t hi) {
    if (value < 1 || value > hi) {
      reject(field, "must be in [1, " + std::to_string(hi) + "], got " +
                        std::to_string(value));
    }
  };
  const auto finite = [&](const char* field, double value) {
    if (!std::isfinite(value)) reject(field, "must be finite");
  };
  if (window == 0) reject("window", "must be positive");
  // The caps keep what the constructor allocates from the config (sketch
  // rows, summaries, the entropy ring and its pow2 rounding) bounded, so a
  // wrapped value such as --shards -1 is an error, not an allocation.
  in_range("shards", shards, std::uint64_t{1} << 16);
  in_range("cms_width", cms_width, std::uint64_t{1} << 24);
  in_range("cms_depth", cms_depth, CountMinSketch::kMaxDepth);
  in_range("shards * cms_width * cms_depth",
           std::uint64_t{shards} * cms_width * cms_depth,
           std::uint64_t{1} << 24);
  in_range("topk", topk, std::uint64_t{1} << 20);
  in_range("shards * topk", std::uint64_t{shards} * topk,
           std::uint64_t{1} << 20);
  in_range("entropy_window", entropy_window, std::uint64_t{1} << 24);
  in_range("entropy_buckets", entropy_buckets, std::uint64_t{1} << 24);
  finite("entropy_low_bits", entropy_low_bits);
  finite("entropy_high_bits", entropy_high_bits);
  if (entropy_low_bits > entropy_high_bits) {
    reject("entropy_low_bits", "must not exceed entropy_high_bits");
  }
  if (!(hh_share > 0.0 && hh_share <= 1.0)) {
    reject("hh_share", "must be in (0, 1]");
  }
  if (warmup_windows == 0) reject("warmup_windows", "must be positive");
  finite("cusum_slack_frac", cusum_slack_frac);
  if (cusum_slack_frac < 0.0) reject("cusum_slack_frac", "must be >= 0");
  finite("cusum_threshold_frac", cusum_threshold_frac);
  if (cusum_threshold_frac <= 0.0) {
    reject("cusum_threshold_frac", "must be positive");
  }
}

FlowStreamAnalyzer::FlowStreamAnalyzer(FlowAnalyzerConfig config)
    : config_(validated(config)),
      entropy_(config.entropy_window, config.entropy_buckets,
               mix64(config.seed ^ 0xe117'0b17ULL)) {
  shards_.reserve(config_.shards);
  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    shards_.emplace_back(config_, mix64(config_.seed + i + 1));
  }
  src_buf_.resize(config_.shards);
  dst_buf_.resize(config_.shards);
  closing_src_.resize(config_.shards);
  closing_dst_.resize(config_.shards);
}

FlowStreamAnalyzer::~FlowStreamAnalyzer() {
  if (closer_.joinable()) closer_.join();
}

std::uint32_t FlowStreamAnalyzer::shard_of(std::uint32_t key) const noexcept {
  return range_reduce(mix64(config_.seed ^ key), config_.shards);
}

void FlowStreamAnalyzer::ingest(const flow::FlowRecord& record) {
  DDPM_CHECK(!finished_, "FlowStreamAnalyzer: ingest after finish");
  const core::WindowIndex w = record.first_ts / config_.window;
  while (open_window_ < w) close_window();

  ++report_.records;
  report_.packets += record.packets;
  report_.bytes += record.bytes;
  win_arrivals_ += record.packets;
  src_buf_[shard_of(record.src)].push_back(Staged{record.src, record.packets});
  dst_buf_[shard_of(record.dst)].push_back(Staged{record.dst, record.packets});
  // One entropy observation per record: flow arrivals, not packets, carry
  // the source-diversity signal (a spoofed flood is many flows).
  entropy_.observe_key(record.src);
}

void FlowStreamAnalyzer::judge_window(const WindowClose& window) {
  const std::uint64_t arrivals = window.arrivals;
  const netsim::SimTime window_end =
      netsim::SimTime(window.index + 1) * config_.window;

  // Per-window top destination across shards (serial, shard order).
  SpaceSavingTopK::Item best;
  for (const Shard& s : shards_) {
    const SpaceSavingTopK::Item it = s.win_dst_top.top1();
    if (it.count > best.count ||
        (it.count == best.count && it.count > 0 && it.key < best.key)) {
      best = it;
    }
  }

  report_.last_entropy_bits = window.entropy_bits;
  const bool busy = arrivals >= config_.min_window_arrivals;

  if (busy && window.entropy_full) {
    const double h = report_.last_entropy_bits;
    if ((h < config_.entropy_low_bits || h > config_.entropy_high_bits) &&
        !report_.entropy_alarm) {
      report_.entropy_alarm = window_end;
    }
  }

  // Provable share: count - error is a lower bound on the true count.
  const double floor = double(best.count - best.error);
  const double share = arrivals > 0 ? floor / double(arrivals) : 0.0;
  if (busy && share > config_.hh_share && !report_.share_alarm) {
    report_.share_alarm = window_end;
  }

  // CUSUM over the window's top-destination count, baselined on warm-up.
  const double value = double(best.count);
  if (report_.windows < config_.warmup_windows) {
    warmup_sum_ += value;
    if (report_.windows + 1 == config_.warmup_windows) {
      const double mean =
          std::max(1.0, warmup_sum_ / double(config_.warmup_windows));
      cusum_.emplace(mean, config_.cusum_slack_frac * mean,
                     config_.cusum_threshold_frac * mean);
    }
  } else if (cusum_) {
    if (cusum_->fold(value) && !report_.cusum_alarm) {
      report_.cusum_alarm = window_end;
    }
    report_.cusum_statistic = cusum_->statistic();
  }

  if (!report_.detection_time &&
      (report_.entropy_alarm || report_.share_alarm || report_.cusum_alarm)) {
    report_.detection_time = window_end;
    // Name the window's top destination as the victim at first alarm.
    if (best.count > 0) {
      report_.victim_identified = true;
      report_.victim = best.key;
      report_.victim_share = share;
    }
  }
}

void FlowStreamAnalyzer::await_close() {
  if (closer_.joinable()) closer_.join();
  if (close_error_) std::rethrow_exception(std::exchange(close_error_, nullptr));
}

void FlowStreamAnalyzer::close_window() {
  await_close();  // at most one close in flight; the spare set is empty now
  std::size_t buffered = 0;
  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    buffered += src_buf_[i].capacity() + dst_buf_[i].capacity() +
                closing_src_[i].capacity() + closing_dst_[i].capacity();
  }
  buffered *= sizeof(Staged);
  report_.peak_buffer_bytes = std::max(report_.peak_buffer_bytes, buffered);

  src_buf_.swap(closing_src_);
  dst_buf_.swap(closing_dst_);
  const WindowClose window{open_window_, win_arrivals_,
                           entropy_.entropy_bits(), entropy_.full()};
  win_arrivals_ = 0;
  ++open_window_;
  if (config_.jobs <= 1) {
    drain_window(window);
    return;
  }
  closer_ = std::thread([this, window] {
    try {
      drain_window(window);
    } catch (...) {
      close_error_ = std::current_exception();
    }
  });
}

void FlowStreamAnalyzer::drain_window(const WindowClose& window) {
  // Fan the shards across workers: each index touches only shards_[i],
  // closing_src_[i], closing_dst_[i] — disjoint state, no locks needed.
  // Results are merged serially below, so jobs never changes a single byte.
  const core::ParallelRunner runner(config_.jobs);
  // det-taint allowance: each index touches only shard i's sketches and
  // buffers (disjoint state), and judge/merge below run serially in shard
  // order — the dispatch is unobservable in the report bytes.
  runner.for_each_index(  // ddpm-analyze: allow(det-taint)
      config_.shards, [&](std::size_t i) {
    Shard& s = shards_[i];
    for (const Staged& st : closing_src_[i]) {
      s.src_cms.update(st.key, st.weight);
      s.src_top.offer(st.key, st.weight);
    }
    for (const Staged& st : closing_dst_[i]) {
      s.dst_cms.update(st.key, st.weight);
      s.dst_top.offer(st.key, st.weight);
      s.win_dst_top.offer(st.key, st.weight);
    }
  });

  judge_window(window);

  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    shards_[i].win_dst_top.clear();
    closing_src_[i].clear();
    closing_dst_[i].clear();
  }
  ++report_.windows;
}

std::vector<TopEntry> FlowStreamAnalyzer::merged_top(bool sources,
                                                     std::size_t k) const {
  std::vector<TopEntry> merged;
  for (const Shard& s : shards_) {
    const SpaceSavingTopK& summary = sources ? s.src_top : s.dst_top;
    for (const SpaceSavingTopK::Item& it : summary.top(k)) {
      merged.push_back(TopEntry{it.key, it.count, it.error});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TopEntry& a, const TopEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
  if (merged.size() > k) merged.resize(k);
  return merged;
}

std::size_t FlowStreamAnalyzer::memory_bytes() const noexcept {
  std::size_t total = entropy_.memory_bytes();
  for (const Shard& s : shards_) total += s.memory_bytes();
  return total;
}

StreamReport FlowStreamAnalyzer::finish() {
  DDPM_CHECK(!finished_, "FlowStreamAnalyzer: finish called twice");
  close_window();  // flush the open window
  await_close();
  finished_ = true;
  report_.memory_bytes = memory_bytes();
  report_.top_sources = merged_top(true, 10);
  report_.top_dests = merged_top(false, 10);
  return report_;
}

StreamReport replay(flow::TraceGenerator& gen,
                    const FlowAnalyzerConfig& config) {
  FlowStreamAnalyzer analyzer(config);
  flow::FlowRecord record;
  while (gen.next(record)) analyzer.ingest(record);
  return analyzer.finish();
}

StreamReport replay(const std::vector<flow::FlowRecord>& records,
                    const FlowAnalyzerConfig& config) {
  FlowStreamAnalyzer analyzer(config);
  for (const flow::FlowRecord& record : records) analyzer.ingest(record);
  return analyzer.finish();
}

}  // namespace ddpm::stream
