// Telemetry subsystem tests: registry handle semantics, snapshot merge
// algebra, Chrome-trace emission, and the end-to-end acceptance check that
// a mesh:8x8 flood scenario reports per-switch drops and marks.
#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/sis.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/trace.hpp"

namespace ddpm::telemetry {
namespace {

// ---------------------------------------------------------------- registry

TEST(Registry, CounterHandleWritesThroughToSnapshot) {
  Registry reg;
  Counter hits = reg.counter("cache.hits");
  hits.inc();
  hits.inc(4);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("cache.hits"), 5u);
}

TEST(Registry, SameKeyRegistersOnceSharesSlot) {
  Registry reg;
  Counter a = reg.counter("x", "switch=3");
  Counter b = reg.counter("x", "switch=3");
  a.inc();
  b.inc();
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.snapshot().counter_value("x{switch=3}"), 2u);
}

TEST(Registry, MakeKeyFormatsLabels) {
  EXPECT_EQ(Registry::make_key("a.b", ""), "a.b");
  EXPECT_EQ(Registry::make_key("link.tx", "switch=3,port=+x"),
            "link.tx{switch=3,port=+x}");
}

TEST(Registry, GaugeTracksValueAndPeak) {
  Registry reg;
  Gauge depth = reg.gauge("queue.depth");
  depth.set(4.0);
  depth.set(9.0);
  depth.set(2.0);
  depth.add(1.0);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 3.0);
  EXPECT_DOUBLE_EQ(snap.gauges[0].peak, 9.0);
}

TEST(Registry, HistogramBinsAndSaturation) {
  Registry reg;
  HistogramHandle h = reg.histogram("lat", {}, 0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.5);
  h.add(9.5);
  h.add(42.0);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& e = snap.histograms[0];
  EXPECT_EQ(e.total, 4u);
  EXPECT_EQ(e.underflow, 1u);
  EXPECT_EQ(e.overflow, 1u);
  EXPECT_EQ(e.bins[0], 1u);
  EXPECT_EQ(e.bins[9], 1u);
  EXPECT_DOUBLE_EQ(e.sum, 51.0);
}

TEST(Registry, DisabledRegistryIsInert) {
  Registry reg(false);
  Counter c = reg.counter("a");
  Gauge g = reg.gauge("b");
  HistogramHandle h = reg.histogram("c", {}, 0.0, 1.0, 4);
  c.inc(100);
  g.set(5.0);
  h.add(0.5);
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(Registry, DefaultConstructedHandlesAreInert) {
  Counter c;
  Gauge g;
  HistogramHandle h;
  c.inc();   // must not crash
  g.set(1.0);
  h.add(1.0);
}

TEST(Registry, ResetZeroesButKeepsRegistrations) {
  Registry reg;
  Counter c = reg.counter("n");
  c.inc(7);
  reg.reset();
  EXPECT_EQ(reg.snapshot().counter_value("n"), 0u);
  c.inc();  // outstanding handle still points at the live slot
  EXPECT_EQ(reg.snapshot().counter_value("n"), 1u);
}

TEST(Registry, SnapshotSortedByKey) {
  Registry reg;
  reg.counter("zeta").inc();
  reg.counter("alpha").inc();
  reg.counter("mid", "switch=1").inc();
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].key, "alpha");
  EXPECT_EQ(snap.counters[1].key, "mid{switch=1}");
  EXPECT_EQ(snap.counters[2].key, "zeta");
}

// ---------------------------------------------------------------- snapshot

TEST(Snapshot, CounterSumPrefix) {
  Registry reg;
  reg.counter("switch.drop_ttl", "switch=0").inc(2);
  reg.counter("switch.drop_ttl", "switch=1").inc(3);
  reg.counter("switch.forwarded", "switch=0").inc(10);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_sum_prefix("switch.drop_ttl"), 5u);
  EXPECT_EQ(snap.counter_sum_prefix("switch."), 15u);
  EXPECT_EQ(snap.counter_sum_prefix("nope"), 0u);
}

TEST(Snapshot, MergeAddsSharedSeries) {
  Registry a, b;
  a.counter("n").inc(2);
  b.counter("n").inc(3);
  a.gauge("g").set(5.0);
  b.gauge("g").set(7.0);
  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counter_value("n"), 5u);
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges[0].value, 12.0);  // values sum
  EXPECT_DOUBLE_EQ(merged.gauges[0].peak, 7.0);    // peaks max
}

TEST(Snapshot, MergeDisjointSnapshotsInsertsSorted) {
  // Disjoint key sets — the shape produced when replications instrument
  // different switches. Union must come out sorted with values intact.
  Registry a, b;
  a.counter("m", "switch=0").inc(1);
  a.counter("z.last").inc(9);
  b.counter("a.first").inc(4);
  b.counter("m", "switch=1").inc(2);
  b.histogram("h", {}, 0.0, 4.0, 4).add(1.0);
  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  ASSERT_EQ(merged.counters.size(), 4u);
  EXPECT_EQ(merged.counters[0].key, "a.first");
  EXPECT_EQ(merged.counters[1].key, "m{switch=0}");
  EXPECT_EQ(merged.counters[2].key, "m{switch=1}");
  EXPECT_EQ(merged.counters[3].key, "z.last");
  EXPECT_EQ(merged.counter_value("a.first"), 4u);
  EXPECT_EQ(merged.counter_value("z.last"), 9u);
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].total, 1u);
  // Merging the other way yields the identical snapshot.
  MetricsSnapshot reversed = b.snapshot();
  reversed.merge(a.snapshot());
  EXPECT_EQ(reversed.to_json(), merged.to_json());
}

TEST(Snapshot, MergeHistogramBinsAdd) {
  Registry a, b;
  a.histogram("h", {}, 0.0, 10.0, 10).add(1.5);
  b.histogram("h", {}, 0.0, 10.0, 10).add(1.7);
  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].total, 2u);
  EXPECT_EQ(merged.histograms[0].bins[1], 2u);
}

TEST(Snapshot, JsonAndCsvAreStableAndParseable) {
  Registry reg;
  reg.counter("a").inc(1);
  reg.gauge("b").set(2.5);
  reg.histogram("c", {}, 0.0, 2.0, 2).add(0.5);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.to_json(), snap.to_json());  // deterministic
  const std::string csv = snap.to_csv();
  EXPECT_NE(csv.find("counter,a,1"), std::string::npos);
  EXPECT_NE(csv.find("gauge,b,"), std::string::npos);
  EXPECT_NE(csv.find("histogram,c,"), std::string::npos);
}

// ------------------------------------------------------------------ tracer

TEST(Tracer, RecordsAgainstBoundClock) {
  Tracer tracer;
  std::uint64_t clock = 100;
  tracer.set_clock(&clock);
  tracer.instant("alarm", kPidPipeline, 0);
  clock = 250;
  tracer.counter("depth", kPidKernel, 3.0);
  EXPECT_EQ(tracer.recorded(), 2u);
  const std::string json = tracer.flush_to_string();
  EXPECT_NE(json.find("\"ts\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 250"), std::string::npos);
  EXPECT_NE(json.find("\"alarm\""), std::string::npos);
}

TEST(Tracer, SpanCoversScope) {
  Tracer tracer;
  std::uint64_t clock = 10;
  tracer.set_clock(&clock);
  {
    TraceSpan span(&tracer, "work", kPidCluster, 7);
    clock = 60;
  }
  const std::string json = tracer.flush_to_string();
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 50"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 7"), std::string::npos);
}

TEST(Tracer, RingDropsOldestAndCounts) {
  Tracer tracer(4);
  std::uint64_t clock = 0;
  tracer.set_clock(&clock);
  for (clock = 1; clock <= 10; ++clock) {
    tracer.instant("e", kPidKernel, 0);
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.retained(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::string json = tracer.flush_to_string();
  // Oldest events evicted: ts 1..6 gone, 7..10 retained, in order.
  EXPECT_EQ(json.find("\"ts\": 1,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 6"), std::string::npos);
}

TEST(Tracer, FlushEmitsEventsInTimeOrder) {
  Tracer tracer;
  std::uint64_t clock = 100;
  tracer.set_clock(&clock);
  // A span recorded now that starts later (a queued link transmission),
  // then two events at the current clock.
  tracer.complete("later", kPidCluster, 0, 300, 450);
  tracer.instant("first", kPidCluster, 0);
  tracer.instant("second", kPidCluster, 0);
  const std::string json = tracer.flush_to_string();
  const auto first = json.find("\"first\"");
  const auto second = json.find("\"second\"");
  const auto later = json.find("\"later\"");
  ASSERT_NE(later, std::string::npos);
  // Sorted by ts; recording order breaks the tie at ts 100.
  EXPECT_LT(first, second);
  EXPECT_LT(second, later);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  tracer.instant("e", 0, 0);
  TraceSpan span(&tracer, "s", 0, 0);
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(Tracer, MetadataNamesLanes) {
  Tracer tracer;
  name_standard_processes(tracer);
  tracer.set_thread_name(kPidCluster, 3, "switch 3");
  const std::string json = tracer.flush_to_string();
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("event kernel"), std::string::npos);
  EXPECT_NE(json.find("switch 3"), std::string::npos);
}

TEST(Tracer, ClearKeepsNamesAndClock) {
  Tracer tracer;
  std::uint64_t clock = 5;
  tracer.set_clock(&clock);
  tracer.set_process_name(0, "lane");
  tracer.instant("e", 0, 0);
  tracer.clear();
  EXPECT_EQ(tracer.retained(), 0u);
  tracer.instant("f", 0, 0);
  const std::string json = tracer.flush_to_string();
  EXPECT_EQ(json.find("\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"f\""), std::string::npos);
  EXPECT_NE(json.find("lane"), std::string::npos);
}

// -------------------------------------------------------------- acceptance

core::ScenarioConfig flood_scenario() {
  core::ScenarioConfig config;
  config.cluster.topology = "mesh:8x8";
  config.cluster.router = "adaptive";
  config.cluster.scheme = "ddpm";
  config.cluster.benign_rate_per_node = 0.0002;
  config.cluster.seed = 1234;
  config.identifier = "ddpm";
  config.detect_rate_threshold = 0.005;
  config.detect_half_life = 2000;
  config.duration = 200000;
  config.attack.kind = attack::AttackKind::kUdpFlood;
  config.attack.victim = 63;
  config.attack.zombies = {0, 9, 27, 36};
  config.attack.rate_per_zombie = 0.01;
  config.attack.spoof = attack::SpoofStrategy::kRandomCluster;
  config.attack.start_time = 20000;
  return config;
}

#if DDPM_TELEMETRY_ENABLED

TEST(Acceptance, FloodScenarioReportsPerSwitchDropsAndMarks) {
  auto config = flood_scenario();
  // Leave the flood unmitigated and hot enough to overflow output queues,
  // so per-switch drop counters have something to report.
  config.auto_block = false;
  config.attack.rate_per_zombie = 0.08;
  core::SourceIdentificationSystem system(config);
  const core::ScenarioReport report = system.run();
  const MetricsSnapshot& snap = report.telemetry;

  ASSERT_FALSE(snap.empty());
  // Per-switch forwarding series exist for the whole 8x8 mesh.
  for (int sw : {0, 27, 63}) {
    const std::string key =
        "switch.forwarded{switch=" + std::to_string(sw) + "}";
    EXPECT_NE(snap.counter_value(key), 0u) << key;
  }
  // A saturating flood drops packets somewhere, attributed per switch.
  EXPECT_GT(snap.counter_sum_prefix("switch.drop_"), 0u);
  // The marking scheme stamped packets.
  EXPECT_GT(snap.counter_value("mark.applied{scheme=ddpm}"), 0u);
  // The pipeline detected and identified.
  EXPECT_GT(snap.counter_value("detect.firings"), 0u);
  EXPECT_GT(snap.counter_value("identify.correct"), 0u);
  // Link-level series carry port labels.
  EXPECT_GT(snap.counter_sum_prefix("link.tx_packets{switch="), 0u);
}

TEST(Acceptance, TraceOfFloodScenarioIsWellFormed) {
  auto config = flood_scenario();
  config.duration = 60000;
  core::SourceIdentificationSystem system(config);
  Tracer tracer;
  name_standard_processes(tracer);
  system.set_tracer(&tracer);
  (void)system.run();
  EXPECT_GT(tracer.recorded(), 0u);
  const std::string json = tracer.flush_to_string();
  EXPECT_EQ(json.find("\"ts\": -"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("link.tx"), std::string::npos);
}

TEST(Acceptance, RuntimeDisabledClusterProducesEmptyTelemetry) {
  auto config = flood_scenario();
  config.duration = 30000;
  config.cluster.telemetry = false;
  core::SourceIdentificationSystem system(config);
  const core::ScenarioReport report = system.run();
  EXPECT_TRUE(report.telemetry.empty());
}

#else  // !DDPM_TELEMETRY_ENABLED

TEST(Acceptance, CompiledOutProbesYieldNoSeries) {
  auto config = flood_scenario();
  config.duration = 30000;
  core::SourceIdentificationSystem system(config);
  const core::ScenarioReport report = system.run();
  // Probe-fed series are gone; only snapshot-time aggregate gauges remain.
  EXPECT_EQ(report.telemetry.counter_sum_prefix("switch."), 0u);
  EXPECT_EQ(report.telemetry.counter_sum_prefix("mark."), 0u);
  EXPECT_TRUE(report.telemetry.counters.empty());
}

#endif  // DDPM_TELEMETRY_ENABLED

}  // namespace
}  // namespace ddpm::telemetry
