#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "flow/trace_gen.hpp"
#include "netsim/rng.hpp"
#include "packet/packet.hpp"
#include "stream/cusum.hpp"
#include "stream/detectors.hpp"
#include "stream/entropy_window.hpp"
#include "stream/flow_analyzer.hpp"
#include "stream/sketch.hpp"
#include "stream/space_saving.hpp"

namespace ddpm::stream {
namespace {

constexpr std::size_t kMemoryBudget = 4u << 20;  // 4 MiB

/// A skewed synthetic stream over ~100k distinct keys: rank sampled with
/// a heavy bias so a handful of keys dominate (the regime sketches are
/// built for).
std::vector<std::uint32_t> skewed_stream(std::size_t n, std::uint32_t keys,
                                         std::uint64_t seed) {
  netsim::Rng rng(seed);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Squaring a uniform variate biases toward low ranks ~ p(r) ∝ 1/sqrt(r).
    const double u = rng.next_double();
    out.push_back(std::uint32_t(u * u * double(keys)));
  }
  return out;
}

TEST(CountMin, NeverUnderestimates) {
  CountMinSketch cms(2048, 4, 99);
  std::unordered_map<std::uint32_t, std::uint64_t> exact;
  for (std::uint32_t key : skewed_stream(200'000, 100'000, 1)) {
    cms.update(key);
    ++exact[key];
  }
  EXPECT_EQ(cms.items(), 200'000u);
  for (const auto& [key, count] : exact) {
    EXPECT_GE(cms.estimate(key), count);
  }
}

TEST(CountMin, EpsilonDeltaBoundHolds) {
  CountMinSketch cms(2048, 4, 123);
  std::unordered_map<std::uint32_t, std::uint64_t> exact;
  for (std::uint32_t key : skewed_stream(200'000, 100'000, 2)) {
    cms.update(key);
    ++exact[key];
  }
  const double bound = cms.epsilon() * double(cms.items());
  std::size_t violations = 0;
  for (const auto& [key, count] : exact) {
    if (double(cms.estimate(key)) > double(count) + bound) ++violations;
  }
  // P(violation) <= delta per key; with conservative update the observed
  // rate is far lower. Allow 2x delta for statistical slack.
  const double max_violations = 2.0 * cms.delta() * double(exact.size());
  EXPECT_LE(double(violations), std::max(max_violations, 4.0));
}

TEST(CountMin, ConservativeDominatesPlain) {
  CountMinSketch conservative(512, 4, 7, true);
  CountMinSketch plain(512, 4, 7, false);
  const std::vector<std::uint32_t> stream = skewed_stream(50'000, 20'000, 3);
  for (std::uint32_t key : stream) {
    conservative.update(key);
    plain.update(key);
  }
  // Same hash seeds, so pointwise: conservative estimate <= plain estimate.
  for (std::uint32_t key = 0; key < 20'000; ++key) {
    EXPECT_LE(conservative.estimate(key), plain.estimate(key));
  }
}

TEST(CountMin, UpdateReturnsPostEstimateAndClearResets) {
  CountMinSketch cms(64, 4, 5);
  EXPECT_EQ(cms.update(42), 1u);
  EXPECT_EQ(cms.update(42, 9), 10u);
  EXPECT_GE(cms.estimate(42), 10u);
  cms.clear();
  EXPECT_EQ(cms.estimate(42), 0u);
  EXPECT_EQ(cms.items(), 0u);
}

TEST(CountMin, MemoryIsGeometryNotStream) {
  CountMinSketch cms(2048, 4, 1);
  const std::size_t before = cms.memory_bytes();
  for (std::uint32_t key = 0; key < 500'000; ++key) cms.update(key);
  EXPECT_EQ(cms.memory_bytes(), before);
  EXPECT_LE(cms.memory_bytes(), kMemoryBudget);
}

TEST(SpaceSaving, CountBracketsTruth) {
  SpaceSavingTopK summary(64, 17);
  std::unordered_map<std::uint32_t, std::uint64_t> exact;
  for (std::uint32_t key : skewed_stream(100'000, 50'000, 4)) {
    summary.offer(key);
    ++exact[key];
  }
  EXPECT_EQ(summary.total(), 100'000u);
  for (const auto& item : summary.top(64)) {
    const std::uint64_t truth = exact[item.key];
    EXPECT_LE(truth, item.count);                // never undercounts
    EXPECT_GE(truth + item.error, item.count);   // overcount bounded by error
  }
}

/// Half the stream concentrates on 16 hot keys, the rest spreads over
/// `keys` cold ones — every hot key's count is well above N/capacity, so
/// the Space-Saving guarantees bite (the plain skewed_stream is too flat
/// for a capacity-64 summary over 100k keys).
std::vector<std::uint32_t> hot_cold_stream(std::size_t n, std::uint32_t keys,
                                           std::uint64_t seed) {
  netsim::Rng rng(seed);
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_bool(0.5)) {
      out.push_back(std::uint32_t(rng.next_below(16)));
    } else {
      out.push_back(16 + std::uint32_t(rng.next_below(keys)));
    }
  }
  return out;
}

TEST(SpaceSaving, GuaranteedHeavyHittersAreMonitored) {
  SpaceSavingTopK summary(64, 18);
  std::unordered_map<std::uint32_t, std::uint64_t> exact;
  for (std::uint32_t key : hot_cold_stream(100'000, 50'000, 5)) {
    summary.offer(key);
    ++exact[key];
  }
  // Classic guarantee: any key with true count > N/capacity is monitored.
  const std::uint64_t threshold = summary.total() / summary.capacity();
  std::size_t heavy = 0;
  for (const auto& [key, count] : exact) {
    if (count > threshold) {
      ++heavy;
      EXPECT_GT(summary.estimate(key), 0u) << "missing heavy key " << key;
    }
  }
  EXPECT_GE(heavy, 16u);  // the guarantee was actually exercised
}

TEST(SpaceSaving, TopKRecallOnSkewedStream) {
  SpaceSavingTopK summary(64, 19);
  std::map<std::uint32_t, std::uint64_t> exact;
  for (std::uint32_t key : hot_cold_stream(200'000, 100'000, 6)) {
    summary.offer(key);
    ++exact[key];
  }
  // True top-8 by count (key-ascending tiebreak, same as the summary).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked;
  for (const auto& [key, count] : exact) ranked.push_back({count, key});
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  const auto top = summary.top(16);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    for (const auto& item : top) {
      if (item.key == ranked[i].second) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GE(hits, 7u);  // >= 7/8 of the true top-8 inside the reported top-16
}

TEST(SpaceSaving, EvictionTracksNewHeavyKey) {
  SpaceSavingTopK summary(4, 20);
  for (int i = 0; i < 100; ++i) {
    summary.offer(1);
    summary.offer(2);
    summary.offer(3);
    summary.offer(4);
  }
  // A fresh key hammered after the summary is full must displace someone
  // and surface at the top.
  for (int i = 0; i < 1000; ++i) summary.offer(99);
  const auto top = summary.top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, 99u);
  EXPECT_GE(top[0].count, 1000u);
  EXPECT_LE(top[0].count - top[0].error, 1000u + 100u);
  EXPECT_EQ(summary.top1().key, 99u);
}

TEST(SpaceSaving, ClearEmptiesSummary) {
  SpaceSavingTopK summary(8, 21);
  for (std::uint32_t k = 0; k < 100; ++k) summary.offer(k);
  summary.clear();
  EXPECT_EQ(summary.size(), 0u);
  EXPECT_EQ(summary.total(), 0u);
  EXPECT_EQ(summary.estimate(5), 0u);
  summary.offer(7, 3);
  EXPECT_EQ(summary.estimate(7), 3u);
}

TEST(EntropySketch, MatchesExactEntropyOnSmallAlphabet) {
  // 8 equiprobable keys into 4096 buckets: collisions are negligible, so
  // the sketch entropy must sit at ~3 bits once the window fills.
  SlidingEntropySketch sketch(1024, 4096, 31);
  for (std::uint32_t i = 0; i < 4096; ++i) sketch.observe_key(i & 7);
  EXPECT_TRUE(sketch.full());
  EXPECT_NEAR(sketch.entropy_bits(), 3.0, 0.01);
}

TEST(EntropySketch, SlidesWithTheWindow) {
  SlidingEntropySketch sketch(1024, 4096, 32);
  // Fill with high diversity, then flood a single key: the window must
  // forget the diverse prefix and collapse toward 0 bits.
  for (std::uint32_t i = 0; i < 2048; ++i) sketch.observe_key(i);
  const double diverse = sketch.entropy_bits();
  EXPECT_GT(diverse, 9.0);
  for (std::uint32_t i = 0; i < 2048; ++i) sketch.observe_key(0xdead);
  EXPECT_NEAR(sketch.entropy_bits(), 0.0, 1e-9);
}

TEST(EntropySketch, SpoofedFloodSaturates) {
  SlidingEntropySketch sketch(4096, 4096, 33);
  for (std::uint32_t i = 0; i < 8192; ++i) sketch.observe_key(i * 2654435761u);
  // All-distinct keys: entropy approaches log2(window) minus collision
  // loss (~0.8 bits for load factor 1).
  EXPECT_GT(sketch.entropy_bits(), 10.5);
  EXPECT_LE(sketch.entropy_bits(), 12.0);
}

TEST(EntropySketch, ClearResets) {
  SlidingEntropySketch sketch(64, 64, 34);
  for (std::uint32_t i = 0; i < 100; ++i) sketch.observe_key(i);
  sketch.clear();
  EXPECT_FALSE(sketch.full());
  EXPECT_EQ(sketch.entropy_bits(), 0.0);
}

TEST(RateCusum, RatchetsAcrossBursts) {
  RateCusum cusum(10.0, 5.0, 100.0);
  // Benign windows hover at the mean: statistic stays pinned at 0.
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(cusum.fold(10.0));
  EXPECT_EQ(cusum.statistic(), 0.0);
  // 40-per-window bursts with quiet gaps: each burst adds 25, each gap
  // subtracts 15 — the ratchet still climbs to the threshold.
  bool alarmed = false;
  for (int i = 0; i < 40 && !alarmed; ++i) {
    alarmed = cusum.fold(i % 2 == 0 ? 40.0 : 0.0);
  }
  EXPECT_TRUE(alarmed);
}

pkt::Packet make_packet(std::uint32_t src) {
  pkt::Packet p;
  p.header = pkt::IpHeader(src, 42, pkt::IpProto::kUdp, 64);
  return p;
}

TEST(SketchDetectors, EntropyDetectorAlarmsOnSpoofedFlood) {
  SketchDetectorTuning tuning;
  tuning.entropy_window = 1024;
  tuning.entropy_buckets = 2048;
  tuning.entropy_low_bits = 0.5;
  tuning.entropy_high_bits = 8.0;
  SketchEntropyDetector detector(tuning);
  netsim::SimTime t = 0;
  // Benign: 64 distinct sources -> ~6 bits, inside the band.
  for (int i = 0; i < 4096; ++i) detector.observe(make_packet(i % 64), ++t);
  EXPECT_FALSE(detector.alarmed()) << detector.current_entropy();
  // Spoofed flood: every packet a fresh source -> entropy > 8 bits.
  for (std::uint32_t i = 0; i < 4096; ++i) {
    detector.observe(make_packet(0x10000 + i), ++t);
  }
  EXPECT_TRUE(detector.alarmed());
  EXPECT_LE(detector.memory_bytes(), kMemoryBudget);
  detector.reset();
  EXPECT_FALSE(detector.alarmed());
}

TEST(SketchDetectors, HeavyHitterAlarmsOnDominatingSource) {
  SketchDetectorTuning tuning;
  tuning.hh_min_total = 256;
  tuning.hh_share = 0.5;
  HeavyHitterDetector detector(tuning);
  netsim::SimTime t = 0;
  for (int round = 0; round < 64; ++round) {
    for (std::uint32_t s = 0; s < 16; ++s) detector.observe(make_packet(s), ++t);
  }
  EXPECT_FALSE(detector.alarmed());  // uniform: max share 1/16
  for (int i = 0; i < 4096; ++i) detector.observe(make_packet(7), ++t);
  EXPECT_TRUE(detector.alarmed());
  EXPECT_EQ(detector.top_source().key, 7u);
}

TEST(SketchDetectors, SketchCusumCatchesPulsingSource) {
  SketchDetectorTuning tuning;
  tuning.cusum_window = 1000;
  tuning.cusum_mean = 10.0;
  tuning.cusum_slack = 5.0;
  tuning.cusum_threshold = 200.0;
  SketchCusumDetector detector(tuning);
  netsim::SimTime t = 0;
  // Benign: ~10 packets per window from rotating sources.
  for (int w = 0; w < 20; ++w) {
    for (int i = 0; i < 10; ++i) detector.observe(make_packet(i), t + 100u * i);
    t += 1000;
  }
  EXPECT_FALSE(detector.alarmed());
  // Pulse: every other window one source fires 100 packets.
  for (int w = 0; w < 20 && !detector.alarmed(); ++w) {
    if (w % 2 == 0) {
      for (int i = 0; i < 100; ++i) detector.observe(make_packet(666), t + i);
    } else {
      detector.observe(make_packet(1), t + 1);
    }
    t += 1000;
  }
  EXPECT_TRUE(detector.alarmed());
}

TEST(SketchDetectors, FactoryBuildsEveryName) {
  for (const char* name :
       {"rate-threshold", "entropy", "cusum", "syn-half-open",
        "sketch-entropy", "heavy-hitter", "sketch-cusum"}) {
    const auto detector = make_detector(name, 0.02, 2000, {});
    ASSERT_NE(detector, nullptr) << name;
    EXPECT_FALSE(detector->alarmed());
    EXPECT_LE(detector->memory_bytes(), kMemoryBudget);
  }
  EXPECT_THROW(make_detector("nope", 0.02, 2000, {}), std::invalid_argument);
}

TEST(FlowAnalyzer, QuietOnBenignTraffic) {
  flow::TraceGenConfig gen;
  gen.seed = 9;
  gen.attack = flow::AttackShape::kNone;
  gen.duration = 400'000;
  flow::TraceGenerator source(gen);
  const StreamReport report = replay(source, FlowAnalyzerConfig{});
  EXPECT_FALSE(report.detection_time.has_value());
  EXPECT_FALSE(report.victim_identified);
  EXPECT_GT(report.records, 1000u);
}

TEST(FlowAnalyzer, DetectsFloodAndNamesVictim) {
  flow::TraceGenConfig gen;
  gen.seed = 10;
  gen.attack = flow::AttackShape::kFlood;
  gen.attack_sources = 50'000;
  gen.attack_start = 100'000;
  gen.attack_duration = 200'000;
  gen.duration = 400'000;
  flow::TraceGenerator source(gen);
  FlowAnalyzerConfig config;
  const StreamReport report = replay(source, config);
  ASSERT_TRUE(report.detection_time.has_value());
  // Detection within two windows of the attack starting.
  EXPECT_GE(*report.detection_time, gen.attack_start);
  EXPECT_LE(*report.detection_time, gen.attack_start + 2 * config.window);
  EXPECT_TRUE(report.victim_identified);
  EXPECT_EQ(report.victim, gen.victim);
  EXPECT_LE(report.memory_bytes, kMemoryBudget);
  // The victim tops the cumulative destination heavy hitters.
  ASSERT_FALSE(report.top_dests.empty());
  EXPECT_EQ(report.top_dests[0].key, gen.victim);
}

TEST(FlowAnalyzer, MemoryIndependentOfSourceCount) {
  FlowAnalyzerConfig config;
  const std::size_t expected = FlowStreamAnalyzer(config).memory_bytes();
  for (std::uint32_t sources : {10'000u, 100'000u}) {
    flow::TraceGenConfig gen;
    gen.attack_sources = sources;
    gen.duration = 200'000;
    gen.attack_start = 50'000;
    gen.attack_duration = 100'000;
    flow::TraceGenerator source(gen);
    const StreamReport report = replay(source, config);
    EXPECT_EQ(report.memory_bytes, expected) << sources;
  }
}

TEST(FlowAnalyzer, LateRecordsFoldIntoOpenWindow) {
  FlowAnalyzerConfig config;
  config.window = 1000;
  FlowStreamAnalyzer analyzer(config);
  flow::FlowRecord r;
  r.src = 1;
  r.dst = 2;
  r.packets = 1;
  r.bytes = 100;
  r.first_ts = 5'500;
  r.last_ts = 5'500;
  analyzer.ingest(r);
  r.first_ts = 200;  // straggler from an earlier window
  analyzer.ingest(r);
  const StreamReport report = analyzer.finish();
  EXPECT_EQ(report.records, 2u);
  EXPECT_EQ(report.windows, 6u);  // windows 0..5 closed
}

/// A flood trace tumbled into window-500 windows (hundreds of them), with
/// every 97th record pushed back by three windows to arrive late.
std::vector<flow::FlowRecord> late_trace() {
  flow::TraceGenConfig gen;
  gen.seed = 21;
  gen.duration = 200'000;
  gen.attack_sources = 20'000;
  gen.attack_start = 60'000;
  gen.attack_duration = 80'000;
  std::vector<flow::FlowRecord> records = flow::TraceGenerator(gen).generate();
  for (std::size_t i = 0; i < records.size(); i += 97) {
    records[i].first_ts -= std::min<netsim::SimTime>(records[i].first_ts, 1'500);
  }
  return records;
}

FlowAnalyzerConfig small_window_config(std::size_t jobs) {
  FlowAnalyzerConfig config;
  config.window = 500;
  config.min_window_arrivals = 8;
  config.jobs = jobs;
  return config;
}

TEST(FlowAnalyzerAsyncClose, ReportIsByteIdenticalForAnyJobs) {
  const std::vector<flow::FlowRecord> records = late_trace();
  const StreamReport serial = replay(records, small_window_config(1));
  EXPECT_GE(serial.windows, 300u);
  EXPECT_TRUE(serial.detection_time.has_value());
  const std::string json = serial.to_json();
  for (const std::size_t jobs : {2u, 4u, 8u}) {
    EXPECT_EQ(replay(records, small_window_config(jobs)).to_json(), json)
        << "jobs=" << jobs;
  }
}

TEST(FlowAnalyzerAsyncClose, PeakBufferCountsBothStagingSets) {
  const std::vector<flow::FlowRecord> records = late_trace();
  const FlowAnalyzerConfig config = small_window_config(1);
  // Records per window as the analyzer sees them (late ones fold into the
  // open window).
  std::vector<std::uint64_t> per_window;
  core::WindowIndex open = 0;
  for (const flow::FlowRecord& r : records) {
    open = std::max<core::WindowIndex>(open, r.first_ts / config.window);
    if (per_window.size() <= open) per_window.resize(open + 1, 0);
    ++per_window[open];
  }
  // While window w+1 is staged, window w's set is still allocated: each
  // record holds one source and one destination entry in its set.
  std::uint64_t pair = 0;
  for (std::size_t w = 0; w + 1 < per_window.size(); ++w) {
    pair = std::max(pair, per_window[w] + per_window[w + 1]);
  }
  const std::size_t entry = 8;  // key + weight, both 32-bit
  const StreamReport serial = replay(records, config);
  EXPECT_GE(serial.peak_buffer_bytes, 2 * entry * pair);
  for (const std::size_t jobs : {2u, 4u, 8u}) {
    EXPECT_EQ(replay(records, small_window_config(jobs)).peak_buffer_bytes,
              serial.peak_buffer_bytes)
        << "jobs=" << jobs;
  }
}

TEST(FlowAnalyzerAsyncClose, DestroyedMidStreamJoinsCleanly) {
  const std::vector<flow::FlowRecord> records = late_trace();
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    const FlowAnalyzerConfig config = small_window_config(jobs);
    FlowStreamAnalyzer analyzer(config);
    // Ingest half the trace, then up to and including the next record that
    // opens a new window: that record's ingest has just handed a close to
    // the background task (jobs > 1), which is then likely still running
    // when the analyzer is destroyed.
    core::WindowIndex open = 0;
    std::size_t i = 0;
    for (; i < records.size(); ++i) {
      const core::WindowIndex w = records[i].first_ts / config.window;
      analyzer.ingest(records[i]);
      if (w > open && i >= records.size() / 2) break;
      open = std::max(open, w);
    }
    ASSERT_LT(i, records.size()) << "no window boundary after the midpoint";
  }  // no finish(): the destructor waits for the background close
}

TEST(FlowAnalyzerAsyncClose, GapOfEmptyWindowsMatchesSerial) {
  flow::FlowRecord r;
  r.src = 7;
  r.dst = 9;
  r.packets = 100;
  std::vector<flow::FlowRecord> records;
  for (const netsim::SimTime t : {10u, 20u, 250'000u, 250'010u, 900'000u}) {
    r.first_ts = t;
    records.push_back(r);
  }
  const std::string serial = replay(records, small_window_config(1)).to_json();
  EXPECT_EQ(replay(records, small_window_config(4)).to_json(), serial);
}

TEST(FlowAnalyzerValidate, DefaultsAreValid) {
  EXPECT_NO_THROW(FlowAnalyzerConfig{}.validate());
}

TEST(FlowAnalyzerValidate, RejectsEachBadFieldByName) {
  struct Case {
    const char* field;
    void (*mutate)(FlowAnalyzerConfig&);
  };
  const Case cases[] = {
      {"window", [](FlowAnalyzerConfig& c) { c.window = 0; }},
      {"shards", [](FlowAnalyzerConfig& c) { c.shards = 0; }},
      {"shards", [](FlowAnalyzerConfig& c) { c.shards = 0xffff'ffffu; }},
      {"cms_width", [](FlowAnalyzerConfig& c) { c.cms_width = 0; }},
      {"cms_depth", [](FlowAnalyzerConfig& c) { c.cms_depth = 0; }},
      {"cms_depth",
       [](FlowAnalyzerConfig& c) {
         c.cms_depth = CountMinSketch::kMaxDepth + 1;  // not clamped
       }},
      {"shards * cms_width * cms_depth",
       [](FlowAnalyzerConfig& c) {
         c.shards = 4096;
         c.cms_width = 1u << 20;
       }},
      {"topk", [](FlowAnalyzerConfig& c) { c.topk = 0; }},
      {"shards * topk",
       [](FlowAnalyzerConfig& c) {
         c.shards = 4096;
         c.cms_width = 64;
         c.topk = 1024;
       }},
      {"entropy_window", [](FlowAnalyzerConfig& c) { c.entropy_window = 0; }},
      {"entropy_window",
       [](FlowAnalyzerConfig& c) { c.entropy_window = 0x8000'0001u; }},
      {"entropy_buckets", [](FlowAnalyzerConfig& c) { c.entropy_buckets = 0; }},
      {"entropy_low_bits",
       [](FlowAnalyzerConfig& c) { c.entropy_low_bits = std::nan(""); }},
      {"entropy_high_bits",
       [](FlowAnalyzerConfig& c) { c.entropy_high_bits = INFINITY; }},
      {"entropy_low_bits",
       [](FlowAnalyzerConfig& c) { c.entropy_low_bits = 12.0; }},
      {"hh_share", [](FlowAnalyzerConfig& c) { c.hh_share = 0.0; }},
      {"hh_share", [](FlowAnalyzerConfig& c) { c.hh_share = 1.5; }},
      {"hh_share", [](FlowAnalyzerConfig& c) { c.hh_share = std::nan(""); }},
      {"warmup_windows", [](FlowAnalyzerConfig& c) { c.warmup_windows = 0; }},
      {"cusum_slack_frac",
       [](FlowAnalyzerConfig& c) { c.cusum_slack_frac = -1.0; }},
      {"cusum_threshold_frac",
       [](FlowAnalyzerConfig& c) { c.cusum_threshold_frac = 0.0; }},
      {"cusum_threshold_frac",
       [](FlowAnalyzerConfig& c) { c.cusum_threshold_frac = INFINITY; }},
  };
  for (const Case& k : cases) {
    FlowAnalyzerConfig config;
    k.mutate(config);
    try {
      FlowStreamAnalyzer analyzer(config);
      ADD_FAILURE() << "accepted a bad " << k.field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(k.field) + " "),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FlowAnalyzerValidate, AcceptsTheEdgesOfEachRange) {
  FlowAnalyzerConfig config;
  config.cms_depth = CountMinSketch::kMaxDepth;
  config.hh_share = 1.0;
  config.warmup_windows = 1;
  config.cusum_slack_frac = 0.0;
  config.shards = 1;
  config.window = 1;
  EXPECT_NO_THROW(FlowStreamAnalyzer{config});
}

TEST(StreamReportJson, IsWellFormedAndStable) {
  flow::TraceGenConfig gen;
  gen.duration = 100'000;
  gen.attack_start = 20'000;
  gen.attack_duration = 50'000;
  flow::TraceGenerator source(gen);
  const StreamReport report = replay(source, FlowAnalyzerConfig{});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"records\""), std::string::npos);
  EXPECT_NE(json.find("\"detection_time\""), std::string::npos);
  EXPECT_NE(json.find("\"top_dests\""), std::string::npos);
  // No "jobs" field: reports at different parallelism compare bytewise.
  EXPECT_EQ(json.find("jobs"), std::string::npos);
}

}  // namespace
}  // namespace ddpm::stream
