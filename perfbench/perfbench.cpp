// ddpm_perfbench — the repo benchmark harness.
//
// Runs one workload per process through the library's public API and
// prints one JSON line of results: end-to-end metrics (untraced run) or
// per-layer metrics (traced run), the outcome check, a digest of the
// deterministic simulated results, and build/machine provenance.
// perfbench/run.py builds this program, runs it and reformats the line;
// perfbench/README.md documents the workloads and metrics.
//
//   ddpm_perfbench --workload cluster_flood --seed 1 --seconds 10 --trace 0
//
// Workloads (the unit of work, "op", in brackets):
//   cluster_flood   ddpm_sim's detect->identify->block scenario on
//                   torus:16x16, 64 zombies [packet-hop]
//   cluster_flood_large  the same on torus:32x32 (by hand only) [packet-hop]
//   wormhole_small  WormholeNetwork, torus:8x8, uniform 0.06 [flit-hop]
//   wormhole_large  WormholeNetwork, mesh:64x64, uniform 0.002 [flit-hop]
//   stream_replay   1M-source spoofed flood, CSV -> read_csv ->
//                   FlowStreamAnalyzer (jobs = 2) [flow record]
//
// Timing rules: inputs the benchmark generates (injection schedules, CSV
// text, zombie choice, replay inputs for the layer microbenches) are built
// outside every timed region. Each timed phase is repeated until --seconds
// have elapsed and the fastest repetition is reported (see
// fastest and segment_floor).
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/attacker.hpp"
#include "attack/traffic.hpp"
#include "core/build_info.hpp"
#include "core/sis.hpp"
#include "flow/csv.hpp"
#include "flow/trace_gen.hpp"
#include "marking/ddpm.hpp"
#include "netsim/event_wheel.hpp"
#include "routing/router.hpp"
#include "stream/detectors.hpp"
#include "stream/flow_analyzer.hpp"
#include "stream/sketch.hpp"
#include "stream/space_saving.hpp"
#include "telemetry/registry.hpp"
#include "topology/factory.hpp"
#include "wormhole/wormhole.hpp"

namespace {

using namespace ddpm;
using topo::NodeId;

// ---------------------------------------------------------------- clocks

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (all threads), seconds.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return double(resident) * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Picks the CPU a single-threaded workload runs on. On a shared host each
/// virtual CPU has slow phases of its own (seconds long, at about 1.7x the
/// time, uncorrelated between CPUs), so a workload left on one CPU can
/// spend a whole run in one while another CPU is fast. At most once per
/// interval, between repetitions, the thread runs a short probe on every
/// allowed CPU and stays on the fastest. Restores the original mask, and
/// reports how much time probing took, when destroyed.
class CpuChooser {
 public:
  CpuChooser(std::function<void()> probe, double interval_s)
      : probe_(std::move(probe)), interval_s_(interval_s) {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuChooser() {
    if (cpus_.empty()) return;
    sched_setaffinity(0, sizeof original_, &original_);
    std::cerr << "ddpm_perfbench: " << picks_ << " CPU choices over " << cpus_.size()
              << " CPUs, " << probing_s_ << " s probing\n";
  }
  CpuChooser(const CpuChooser&) = delete;
  CpuChooser& operator=(const CpuChooser&) = delete;

  /// Moves to the CPU on which the probe runs fastest now (the second of
  /// two calls on each CPU, the first warming its caches), if the last
  /// choice is an interval old.
  void maybe_move() {
    const double now = wall_now();
    if (cpus_.size() < 2 || (picks_ > 0 && now - last_pick_ < interval_s_)) return;
    int best = cpus_.front();
    double best_s = 0;
    for (const int c : cpus_) {
      pin(c);
      probe_();
      const double t0 = wall_now();
      probe_();
      const double took = wall_now() - t0;
      if (c == cpus_.front() || took < best_s) {
        best = c;
        best_s = took;
      }
    }
    pin(best);
    ++picks_;
    last_pick_ = wall_now();
    probing_s_ += last_pick_ - now;
  }

 private:
  static void pin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
  }

  std::function<void()> probe_;
  double interval_s_;
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::uint64_t picks_ = 0;
  double last_pick_ = 0;
  double probing_s_ = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The fastest sample. End-to-end timings use it: on a shared host,
/// interference arrives as slow phases of a second to minutes that only
/// ever add time (+50% and more), so the fastest of many repetitions tracks
/// the code's own cost where the median, or even the lower decile, moves
/// with how much of a run a slow phase happened to cover. The repetitions
/// it is taken over do the same or nearly the same work.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = std::size_t(std::ceil(q * double(v.size()))) - 1;
  return v[std::min(i, v.size() - 1)];
}

/// Keeps microbench results observable so the timed calls are not elided.
volatile std::uint64_t g_sink = 0;

/// Runs `body` (which performs `ops` operations) repeatedly: at least five
/// times and until 50 ms have been spent, and returns the median ns per op.
double ns_per_op(std::uint64_t ops, const std::function<void()>& body) {
  if (ops == 0) return 0.0;
  std::vector<double> samples;
  const double start = wall_now();
  while (samples.size() < 5 || (wall_now() - start < 0.05 && samples.size() < 200)) {
    const double t0 = wall_now();
    body();
    samples.push_back((wall_now() - t0) * 1e9 / double(ops));
  }
  return median(samples);
}

// ---------------------------------------------------------------- digest

/// FNV-1a over 64-bit words: a stable fingerprint of simulated outcomes.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void add(const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
  }
};

// ---------------------------------------------------------------- results

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;         // shrunk sizes, for the benchmark's own tests
  bool expect_wrong = false;  // score against a deliberately wrong truth
};

/// The per-layer metrics every traced run prints, in order, with units.
/// A workload that never calls a layer leaves its metrics at 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"netsim.events", "count"},
      {"netsim.events_per_hop", "ratio"},
      {"netsim.ns_per_event", "ns"},
      {"netsim.heap_share", "ratio"},
      {"topology.ns_per_coord_of", "ns"},
      {"topology.ns_per_neighbor", "ns"},
      {"routing.ns_per_decision", "ns"},
      {"marking.marks", "count"},
      {"marking.ns_per_mark", "ns"},
      {"marking.ns_per_identify", "ns"},
      {"cluster.forwards", "count"},
      {"cluster.drops_queue_full", "count"},
      {"cluster.self_ns_per_hop", "ns"},
      {"cluster.slice_ms_p50", "ms"},
      {"cluster.slice_ms_max", "ms"},
      {"detect.firings", "count"},
      {"detect.latency_ticks", "ticks"},
      {"detect.ns_per_packet", "ns"},
      {"core.identify_attempts", "count"},
      {"core.packets_to_first_ident", "count"},
      {"core.blocks_installed", "count"},
      {"telemetry.series", "count"},
      {"telemetry.snapshot_ms", "ms"},
      {"telemetry.json_bytes", "bytes"},
      {"wormhole.flit_hops", "count"},
      {"wormhole.packets", "count"},
      {"wormhole.ns_per_step", "ns"},
      {"wormhole.step_us_p99", "us"},
      {"wormhole.ns_per_inject", "ns"},
      {"wormhole.vc_allocs", "count"},
      {"wormhole.alloc_stalls", "count"},
      {"wormhole.credit_stalls", "count"},
      {"wormhole.latency_cycles", "cycles"},
      {"wormhole.construct_mb", "MB"},
      {"flow.records", "count"},
      {"flow.ns_per_parse", "ns"},
      {"flow.rejected_lines", "count"},
      {"stream.ns_per_ingest", "ns"},
      {"stream.finish_ms", "ms"},
      {"stream.windows", "count"},
      {"stream.memory_bytes", "bytes"},
      {"stream.detect_window", "count"},
      {"stream.ns_per_cms_update", "ns"},
      {"stream.ns_per_topk_update", "ns"},
      {"trace.overhead_frac", "ratio"},
  };
  return kList;
}

struct Result {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  Digest digest;
  std::vector<std::string> notes;  // why `correct` is false, if it is
  std::map<std::string, double> layer;  // traced run: name -> value

  void fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
};

/// End-to-end samples: one entry per repetition of the workload's timed
/// phase (setup samples are collected separately).
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> cpu_s;
  std::vector<double> ns_per_op;
  void add_run(double wall, double cpu, double ops) {
    run_s.push_back(wall);
    cpu_s.push_back(cpu);
    ns_per_op.push_back(ops > 0 ? wall * 1e9 / ops : 0.0);
  }
};

void emit_end_to_end(Result& r, const Samples& s) {
  std::cerr << "ddpm_perfbench: " << s.run_s.size() << " timed samples, "
            << s.setup_s.size() << " setups; ns_per_op";
  for (const double v : s.ns_per_op) std::cerr << ' ' << v;
  std::cerr << '\n';
  r.metrics.push_back({"setup_s", {fastest(s.setup_s), "s"}});
  r.metrics.push_back({"run_s", {fastest(s.run_s), "s"}});
  r.metrics.push_back({"cpu_s", {fastest(s.cpu_s), "s"}});
  r.metrics.push_back({"ns_per_op", {fastest(s.ns_per_op), "ns"}});
  r.metrics.push_back({"peak_rss_mb", {peak_rss_mb(), "MB"}});
  // fail_frac is failed / attempted of the printed result, not a metric:
  // it is 0 on a correct run, and a zero median has no relative spread.
}

void emit_layers(Result& r) {
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = r.layer.find(name);
    r.metrics.push_back({name, {it == r.layer.end() ? 0.0 : it->second, unit}});
  }
}

// ------------------------------------------------- shared layer replays
//
// Inputs captured from a workload (delivered packets' node traces and the
// victim's marking fields) replayed through single layers on the
// production types.

struct Paths {
  std::vector<NodeId> nodes;           // all paths, concatenated
  std::vector<std::size_t> begin;      // path i = nodes[begin[i], begin[i+1])
  std::vector<NodeId> dest;            // destination per path
  std::vector<std::uint16_t> field;    // marking field at delivery
  std::size_t hops = 0;

  void add(const std::vector<NodeId>& trace, NodeId to, std::uint16_t f) {
    if (trace.size() < 2) return;
    begin.push_back(nodes.size());
    nodes.insert(nodes.end(), trace.begin(), trace.end());
    dest.push_back(to);
    field.push_back(f);
    hops += trace.size() - 1;
  }
  std::size_t size() const { return dest.size(); }
  std::size_t end(std::size_t i) const {
    return i + 1 < begin.size() ? begin[i + 1] : nodes.size();
  }
};

struct VictimFields {
  std::vector<NodeId> at;
  std::vector<std::uint16_t> field;
  std::vector<NodeId> truth;
};

/// topology / routing / marking microbenches over captured paths. Also
/// re-marks every captured path and checks the replayed field equals the
/// field the packet was delivered with.
void replay_paths(const topo::Topology& topo, const route::Router& router,
                  const Paths& paths, Result& r) {
  if (paths.size() == 0) return;
  // Untimed preparation: the (node, port) pairs neighbor() is asked for.
  std::vector<NodeId> hop_node;
  std::vector<topo::Port> hop_port;
  std::vector<NodeId> hop_dest;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t k = paths.begin[i]; k + 1 < paths.end(i); ++k) {
      const auto port = topo.port_to(paths.nodes[k], paths.nodes[k + 1]);
      if (!port) continue;
      hop_node.push_back(paths.nodes[k]);
      hop_port.push_back(*port);
      hop_dest.push_back(paths.dest[i]);
    }
  }

  r.layer["topology.ns_per_coord_of"] = ns_per_op(paths.nodes.size(), [&] {
    std::uint64_t acc = 0;
    for (const NodeId n : paths.nodes) acc += std::uint64_t(topo.coord_of(n)[0]);
    g_sink = g_sink + acc;
  });
  r.layer["topology.ns_per_neighbor"] = ns_per_op(hop_node.size(), [&] {
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < hop_node.size(); ++k) {
      acc += topo.neighbor(hop_node[k], hop_port[k]).value_or(0);
    }
    g_sink = g_sink + acc;
  });

  const route::StaticLinkState links(topo);
  netsim::Rng rng(7);
  r.layer["routing.ns_per_decision"] = ns_per_op(hop_node.size(), [&] {
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < hop_node.size(); ++k) {
      acc += std::uint64_t(router
                               .select_output(hop_node[k], hop_dest[k],
                                              route::kLocalPort, links, rng)
                               .value_or(0));
    }
    g_sink = g_sink + acc;
  });

  mark::DdpmScheme scheme(topo);
  pkt::Packet scratch;
  std::uint64_t mismatched = 0;
  r.layer["marking.ns_per_mark"] = ns_per_op(paths.hops, [&] {
    mismatched = 0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const std::size_t b = paths.begin[i];
      const std::size_t e = paths.end(i);
      scheme.on_injection(scratch, paths.nodes[b]);
      for (std::size_t k = b; k + 1 < e; ++k) {
        scheme.on_forward(scratch, paths.nodes[k], paths.nodes[k + 1]);
      }
      mismatched += scratch.marking_field() != paths.field[i];
    }
  });
  if (mismatched != 0) {
    r.fail("marking replay: " + std::to_string(mismatched) +
           " paths re-marked to a different field");
  }
}

void replay_identify(const topo::Topology& topo, const VictimFields& v,
                     bool expect_wrong, Result& r) {
  mark::DdpmIdentifier identifier(topo);
  std::uint64_t wrong = 0;
  r.layer["marking.ns_per_identify"] = ns_per_op(v.at.size(), [&] {
    wrong = 0;
    for (std::size_t k = 0; k < v.at.size(); ++k) {
      const auto named = identifier.identify(v.at[k], v.field[k]);
      const NodeId truth =
          expect_wrong ? (v.truth[k] + 1) % topo.num_nodes() : v.truth[k];
      wrong += !named || *named != truth;
    }
  });
  if (wrong != 0) {
    r.fail("identify replay: " + std::to_string(wrong) + " of " +
           std::to_string(v.at.size()) + " fields named the wrong source");
  }
}

// --------------------------------------------------------- cluster_flood

struct FloodSpec {
  core::ScenarioConfig config;
  std::size_t zombies = 0;
};

FloodSpec flood_spec(const Options& o) {
  FloodSpec s;
  core::ScenarioConfig& c = s.config;
  c.cluster.topology = o.smoke                                ? "torus:8x8"
                        : o.workload == "cluster_flood_large" ? "torus:32x32"
                                                              : "torus:16x16";
  c.cluster.router = "adaptive";
  c.cluster.scheme = "ddpm";
  c.cluster.benign_rate_per_node = 0.0003;
  c.cluster.seed = o.seed;
  c.identifier = "ddpm";
  c.detector = "rate-threshold";
  c.detect_rate_threshold = 0.005;
  c.auto_block = true;
  c.attack.kind = attack::AttackKind::kUdpFlood;
  c.attack.rate_per_zombie = 0.01;
  c.attack.start_time = 50000;
  c.duration = o.smoke ? 120000 : 400000;
  s.zombies = o.smoke ? 4 : 64;
  // Zombie choice is input generation (ddpm_sim's rule), done untimed.
  const auto probe = topo::make_topology(c.cluster.topology);
  c.attack.victim = probe->num_nodes() - 1;
  netsim::Rng rng(c.cluster.seed ^ 0x20b1e5ULL);
  c.attack.zombies = attack::pick_zombies(*probe, s.zombies, c.attack.victim, rng);
  return s;
}

/// The CpuChooser probe of the single-threaded workloads: the first 20 000
/// ticks (benign traffic only) of the smoke-size flood, about a
/// millisecond of the cluster layers with a cache-resident working set.
void speed_probe() {
  static const core::ScenarioConfig config = [] {
    Options smoke;
    smoke.smoke = true;
    core::ScenarioConfig c = flood_spec(smoke).config;
    c.duration = 20000;
    return c;
  }();
  core::SourceIdentificationSystem probe(config);
  g_sink = g_sink + probe.run().metrics.delivered_benign;
}

/// How often the single-threaded workloads re-choose their CPU, seconds.
constexpr double kProbeInterval_s = 1.0;

/// Scores one report and returns its outcome digest.
std::string score_flood(const core::ScenarioReport& report,
                        const core::ScenarioConfig& c, NodeId nodes,
                        bool expect_wrong, std::uint64_t& attempted,
                        std::uint64_t& failed) {
  std::set<NodeId> truth;
  for (const NodeId z : c.attack.zombies) {
    truth.insert(expect_wrong ? (z + 1) % nodes : z);
  }
  std::uint64_t missing = 0;
  for (const NodeId z : truth) missing += report.identified_sources.count(z) == 0;
  std::uint64_t innocent = 0;
  for (const NodeId n : report.identified_sources) innocent += truth.count(n) == 0;
  attempted = truth.size() + innocent;
  failed = missing + innocent;

  const cluster::Metrics& m = report.metrics;
  Digest d;
  for (const std::uint64_t v :
       {m.injected_benign, m.injected_attack, m.blocked_at_source,
        m.dropped_spoofed_ingress, m.dropped_queue_full, m.dropped_no_route,
        m.dropped_ttl, m.delivered_benign, m.delivered_attack,
        m.filtered_at_victim, m.hops.count(),
        std::uint64_t(std::llround(m.hops.mean() * 1e6)),
        std::uint64_t(std::llround(m.latency_benign.mean() * 1e3)),
        std::uint64_t(std::llround(m.latency_attack.mean() * 1e3))}) {
    d.add(v);
  }
  d.add(report.detection_time.value_or(~std::uint64_t{0}));
  for (const auto& e : report.identifications) {
    d.add(e.when);
    d.add(e.identified);
    d.add(e.true_source);
    d.add(e.correct);
  }
  return d.hex();
}

/// Segments the untraced run is timed in, at equal steps of simulated time.
constexpr std::size_t kFloodSegments = 100;

/// One untraced scenario: construction (setup sample) then run(). An
/// observer marks the first delivery past each of kFloodSegments equal
/// steps of simulated time with a wall and a CPU clock read, so the run is
/// also timed segment by segment (the last segment ends when run() returns
/// its report). The marks cost one comparison per delivery and two clock
/// reads per segment.
struct FloodRun {
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;
  std::vector<double> seg_wall;  // kFloodSegments entries, seconds
  std::vector<double> seg_cpu;
  std::uint64_t forwards = 0;
  std::string digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

FloodRun run_flood_once(const FloodSpec& spec, const Options& o) {
  FloodRun fr;
  const double t0 = wall_now();
  core::SourceIdentificationSystem system(spec.config);
  const double t1 = wall_now();
  const double c1 = cpu_now();

  const netsim::Simulator& sim = system.network().sim();
  const netsim::SimTime step = std::max<netsim::SimTime>(
      1, spec.config.duration / netsim::SimTime(kFloodSegments));
  std::vector<double> wall_marks;
  std::vector<double> cpu_marks;
  wall_marks.reserve(kFloodSegments + 1);
  cpu_marks.reserve(kFloodSegments + 1);
  netsim::SimTime next_boundary = step;
  system.set_observer([&](const pkt::Packet&, NodeId) {
    if (sim.now() < next_boundary) return;
    if (wall_marks.size() < kFloodSegments) {
      wall_marks.push_back(wall_now());
      cpu_marks.push_back(cpu_now());
    }
    while (next_boundary <= sim.now()) next_boundary += step;
  });
  wall_marks.push_back(t1);
  cpu_marks.push_back(c1);

  const core::ScenarioReport report = system.run();
  const double t2 = wall_now();
  const double c2 = cpu_now();
  // Segments no delivery marked (none at this size) close at the end.
  while (wall_marks.size() < kFloodSegments) {
    wall_marks.push_back(t2);
    cpu_marks.push_back(c2);
  }
  wall_marks.push_back(t2);
  cpu_marks.push_back(c2);
  for (std::size_t k = 1; k < wall_marks.size(); ++k) {
    fr.seg_wall.push_back(wall_marks[k] - wall_marks[k - 1]);
    fr.seg_cpu.push_back(cpu_marks[k] - cpu_marks[k - 1]);
  }
  fr.setup_s = t1 - t0;
  fr.run_s = t2 - t1;
  fr.cpu_s = c2 - c1;
  fr.forwards = report.telemetry.counter_sum_prefix("switch.forwarded");
  fr.digest = score_flood(report, spec.config, system.network().topology().num_nodes(),
                          o.expect_wrong, fr.attempted, fr.failed);
  return fr;
}

/// Sum over segments of each segment's fastest time across repetitions.
/// Every repetition of one seed does the same work segment by segment (the
/// outcome digest checks it), so this is the run's time with each piece
/// (a few milliseconds to a few tens) taken at its fastest; a slow phase of
/// the host then has to cover the same piece in every repetition to show,
/// rather than one whole run. Callers check that every repetition has the
/// same segment count; only the common ones are summed.
double segment_floor(const std::vector<std::vector<double>>& reps) {
  std::size_t segments = reps.front().size();
  for (const auto& rep : reps) segments = std::min(segments, rep.size());
  double total = 0;
  for (std::size_t k = 0; k < segments; ++k) {
    std::vector<double> column;
    for (const auto& rep : reps) column.push_back(rep[k]);
    total += fastest(column);
  }
  return total;
}

void cluster_flood(const Options& o, Result& r) {
  const FloodSpec spec = flood_spec(o);
  Samples s;
  std::string digest;
  auto account = [&](const FloodRun& fr) {
    if (fr.forwards == 0) r.fail("cluster_flood: no forwards counted");
    if (digest.empty()) {
      digest = fr.digest;
      r.attempted = fr.attempted;
      r.failed = fr.failed;
    } else if (fr.digest != digest) {
      r.fail("cluster_flood: repeated run of one seed changed its outcome");
    }
  };

  if (!o.trace) {
    std::vector<std::vector<double>> seg_wall;
    std::vector<std::vector<double>> seg_cpu;
    std::uint64_t forwards = 0;
    std::cerr << "ddpm_perfbench: cluster_flood whole-run ns_per_op";
    CpuChooser chooser(speed_probe, kProbeInterval_s);
    const double start = wall_now();
    while (seg_wall.empty() || wall_now() - start < o.seconds) {
      chooser.maybe_move();
      FloodRun fr = run_flood_once(spec, o);
      account(fr);
      if (forwards != 0 && fr.forwards != forwards) {
        r.fail("cluster_flood: repeated run of one seed changed its forwards");
      }
      forwards = fr.forwards;
      std::cerr << ' ' << fr.run_s * 1e9 / double(std::max<std::uint64_t>(1, forwards));
      s.setup_s.push_back(fr.setup_s);
      seg_wall.push_back(std::move(fr.seg_wall));
      seg_cpu.push_back(std::move(fr.seg_cpu));
    }
    std::cerr << '\n';
    s.add_run(segment_floor(seg_wall), segment_floor(seg_cpu), double(forwards));
    // Setup is cheap next to a run; add construction-only samples so its
    // median rests on at least nine.
    while (s.setup_s.size() < 9) {
      const double t0 = wall_now();
      core::SourceIdentificationSystem system(spec.config);
      s.setup_s.push_back(wall_now() - t0);
    }
    r.digest.add(digest);
    emit_end_to_end(r, s);
    return;
  }

  // Traced run: one untraced baseline, then the same scenario with node
  // traces recorded and the harness observing every delivery.
  const FloodRun base = run_flood_once(spec, o);
  account(base);

  core::ScenarioConfig traced_config = spec.config;
  traced_config.cluster.record_traces = true;
  core::SourceIdentificationSystem system(traced_config);
  const NodeId victim = traced_config.attack.victim;
  const netsim::SimTime duration = traced_config.duration;
  constexpr int kSlices = 40;
  const netsim::SimTime slice = duration / kSlices;
  std::vector<double> marks;  // wall time at each slice boundary
  netsim::SimTime next_boundary = slice;
  constexpr std::size_t kMaxPaths = 200000;
  Paths paths;
  VictimFields victim_fields;
  std::vector<pkt::Packet> victim_stream;  // packets as delivered, untraced
  std::vector<netsim::SimTime> victim_times;
  std::vector<netsim::SimTime> serialization;  // ticks per captured packet
  std::vector<netsim::SimTime> inter_arrival;
  std::map<NodeId, netsim::SimTime> last_injection;
  std::vector<double> pending;  // kernel queue length at slice boundaries
  netsim::Simulator& sim = system.network().sim();
  const double bandwidth = traced_config.cluster.link_bandwidth;
  system.set_observer([&](const pkt::Packet& p, NodeId at) {
    const netsim::SimTime now = sim.now();
    while (now >= next_boundary && next_boundary <= duration) {
      marks.push_back(wall_now());
      pending.push_back(double(sim.pending_count()));
      next_boundary += slice;
    }
    if (paths.size() < kMaxPaths) {
      paths.add(p.trace, p.dest_node, p.marking_field());
      serialization.push_back(
          netsim::SimTime(std::ceil(double(p.wire_bytes()) / bandwidth)));
      auto [it, fresh] = last_injection.emplace(p.true_source, p.injected_at);
      if (!fresh && p.injected_at > it->second) {
        inter_arrival.push_back(p.injected_at - it->second);
        it->second = p.injected_at;
      }
    }
    if (at == victim && victim_stream.size() < kMaxPaths) {
      victim_fields.at.push_back(at);
      victim_fields.field.push_back(p.marking_field());
      victim_fields.truth.push_back(p.true_source);
      pkt::Packet copy = p;
      copy.trace.clear();
      copy.trace.shrink_to_fit();
      victim_stream.push_back(std::move(copy));
      victim_times.push_back(now);
    }
  });
  const double t0 = wall_now();
  marks.push_back(t0);
  const core::ScenarioReport report = system.run();
  const double t1 = wall_now();
  while (marks.size() < std::size_t(kSlices) + 1) marks.push_back(t1);
  const double traced_run_s = t1 - t0;
  {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    if (score_flood(report, traced_config, system.network().topology().num_nodes(),
                    o.expect_wrong, attempted, failed) != digest) {
      r.fail("cluster_flood: recording traces changed the outcome");
    }
  }
  r.digest.add(digest);

  const telemetry::MetricsSnapshot& snap = report.telemetry;
  const double forwards = double(snap.counter_sum_prefix("switch.forwarded"));
  const double events = double(sim.events_executed());
  auto& L = r.layer;
  L["netsim.events"] = events;
  L["netsim.events_per_hop"] = forwards > 0 ? events / forwards : 0;
  L["cluster.forwards"] = forwards;
  L["cluster.drops_queue_full"] =
      double(snap.counter_sum_prefix("switch.drop_queue_full"));
  L["marking.marks"] = double(snap.counter_sum_prefix("mark.applied"));
  L["detect.firings"] = double(snap.counter_value("detect.firings"));
  L["detect.latency_ticks"] =
      report.detection_time
          ? double(*report.detection_time) - double(traced_config.attack.start_time)
          : 0.0;
  L["core.identify_attempts"] = double(snap.counter_value("identify.attempts"));
  L["core.packets_to_first_ident"] = double(report.packets_to_first_identification);
  L["core.blocks_installed"] = double(snap.counter_value("mitigate.blocks_installed"));

  std::vector<double> slice_ms;
  for (std::size_t k = 1; k < marks.size(); ++k) {
    slice_ms.push_back((marks[k] - marks[k - 1]) * 1e3);
  }
  L["cluster.slice_ms_p50"] = median(slice_ms);
  L["cluster.slice_ms_max"] = *std::max_element(slice_ms.begin(), slice_ms.end());

  // Telemetry: the harness takes the snapshot a CLI run would write.
  std::vector<double> snap_ms;
  telemetry::MetricsSnapshot again;
  for (int k = 0; k < 5; ++k) {
    const double a = wall_now();
    again = system.network().telemetry_snapshot();
    snap_ms.push_back((wall_now() - a) * 1e3);
  }
  L["telemetry.snapshot_ms"] = median(snap_ms);
  L["telemetry.series"] = double(again.series());
  L["telemetry.json_bytes"] = double(again.to_json().size());

  // Layer replays over the captured inputs.
  const topo::Topology& topo = system.network().topology();
  replay_paths(topo, system.network().router(), paths, r);
  replay_identify(topo, victim_fields, o.expect_wrong, r);
  {
    auto detector = stream::make_detector(traced_config.detector,
                                          traced_config.detect_rate_threshold,
                                          traced_config.detect_half_life,
                                          traced_config.detect_tuning);
    L["detect.ns_per_packet"] = ns_per_op(victim_stream.size(), [&] {
      detector->reset();
      for (std::size_t k = 0; k < victim_stream.size(); ++k) {
        detector->observe(victim_stream[k], victim_times[k]);
      }
      g_sink = g_sink + detector->alarmed();
    });
  }
  {
    // EventWheel schedule+pop over the flood's delay mix: serialization,
    // serialization plus propagation (the two events of a hop), and
    // per-source injection inter-arrivals, at the run's mean pending
    // population.
    std::vector<netsim::SimTime> delays;
    const netsim::SimTime latency = traced_config.cluster.link_latency;
    for (std::size_t k = 0; k < serialization.size() && delays.size() < (1u << 20); ++k) {
      delays.push_back(serialization[k]);
      delays.push_back(serialization[k] + latency);
      if (!inter_arrival.empty()) delays.push_back(inter_arrival[k % inter_arrival.size()]);
    }
    const std::size_t population =
        std::max<std::size_t>(1, std::size_t(std::llround(median(pending))));
    std::uint64_t heap = 0;
    std::uint64_t total = 0;
    L["netsim.ns_per_event"] = delays.empty() ? 0.0 : ns_per_op(delays.size(), [&] {
      netsim::EventWheel wheel;
      std::uint64_t fired = 0;
      for (std::size_t k = 0; k < population; ++k) {
        wheel.schedule(delays[k % delays.size()], [&fired] { ++fired; });
      }
      for (const netsim::SimTime d : delays) {
        auto [when, action] = wheel.pop();
        action();
        wheel.schedule(when + d, [&fired] { ++fired; });
      }
      heap = wheel.heap_scheduled();
      total = heap + wheel.wheel_scheduled();
      g_sink = g_sink + fired;
    });
    L["netsim.heap_share"] = total ? double(heap) / double(total) : 0.0;
  }

  // Self time of the cluster engine: the untraced run minus what the
  // sub-layers cost at their replayed per-op rates, per forward.
  const double sub_ns =
      events * L["netsim.ns_per_event"] +
      forwards * (L["routing.ns_per_decision"] + L["marking.ns_per_mark"]) +
      double(victim_stream.size()) * L["detect.ns_per_packet"] +
      L["core.identify_attempts"] * L["marking.ns_per_identify"];
  L["cluster.self_ns_per_hop"] =
      forwards > 0 ? std::max(0.0, base.run_s * 1e9 - sub_ns) / forwards : 0.0;
  L["trace.overhead_frac"] = traced_run_s / base.run_s - 1.0;
  emit_layers(r);
}

// -------------------------------------------------------- wormhole_*

struct WormSpec {
  std::string topology;
  double rate = 0;             // packets / node / cycle
  std::uint64_t warmup = 0;    // untimed cycles before the first chunk
  std::uint64_t chunk = 0;     // cycles per timed chunk
};

WormSpec worm_spec(const Options& o) {
  if (o.workload == "wormhole_small") {
    return o.smoke ? WormSpec{"torus:8x8", 0.06, 500, 1000}
                   : WormSpec{"torus:8x8", 0.06, 2000, 10000};
  }
  return o.smoke ? WormSpec{"mesh:16x16", 0.004, 300, 300}
                 : WormSpec{"mesh:64x64", 0.002, 600, 600};
}

struct Injection {
  std::uint64_t cycle;
  NodeId node;
  pkt::Packet packet;
};

/// Pre-generates the uniform injection schedule, one span of cycles at a
/// time, outside the timed loop.
class Schedule {
 public:
  Schedule(const topo::Topology& topo, double rate, std::uint64_t seed,
           std::uint64_t trace_every)
      : topo_(topo), pattern_(topo), rng_(seed), rate_(rate),
        trace_every_(trace_every) {}

  void fill(std::uint64_t from, std::uint64_t cycles, std::vector<Injection>& out) {
    out.clear();
    for (std::uint64_t c = from; c < from + cycles; ++c) {
      for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
        if (!rng_.next_bool(rate_)) continue;
        const NodeId dest = pattern_.pick_dest(n, rng_);
        pkt::Packet p;
        p.header = pkt::IpHeader(n + 1, dest + 1, pkt::IpProto::kUdp, 44);
        p.id = ++made_;
        p.true_source = n;
        p.dest_node = dest;
        p.payload_bytes = 44;  // 64-byte packets -> 4 flits of 16 bytes
        p.injected_at = c;
        // Traced runs seed a node trace on a sample of packets; the
        // engine then records their path (hop tuples for the replays).
        if (trace_every_ != 0 && made_ % trace_every_ == 0) p.trace.push_back(n);
        out.push_back({c, n, std::move(p)});
      }
    }
  }

 private:
  const topo::Topology& topo_;
  attack::UniformPattern pattern_;
  netsim::Rng rng_;
  double rate_;
  std::uint64_t trace_every_;
  std::uint64_t made_ = 0;
};

struct Delivery {
  NodeId at;
  NodeId truth;
  std::uint16_t field;
  std::uint32_t hops;
  std::uint32_t flits;
  std::uint64_t injected_at;
  std::uint64_t delivered_at;
};

/// One wormhole network plus everything the harness keeps about it.
struct WormRig {
  std::unique_ptr<topo::Topology> topo;
  std::unique_ptr<route::Router> router;
  std::unique_ptr<mark::DdpmScheme> scheme;
  std::unique_ptr<wormhole::WormholeNetwork> net;
  std::vector<Delivery> delivered;  // since the last settle()
  Paths paths;                      // traced runs only
  std::uint64_t injected = 0;
  std::uint64_t received = 0;
  std::uint64_t wrong = 0;
  std::uint64_t flit_hops = 0;
  double latency_sum = 0;
  Digest digest;
  std::uint64_t digest_horizon = 0;  // deliveries before this cycle are hashed
};

std::unique_ptr<WormRig> build_worm(const std::string& spec) {
  auto rig = std::make_unique<WormRig>();
  rig->topo = topo::make_topology(spec);
  rig->router = route::make_router("adaptive", *rig->topo);
  rig->scheme = std::make_unique<mark::DdpmScheme>(*rig->topo);
  wormhole::WormholeConfig config;
  config.buffer_flits = 4;
  rig->net = std::make_unique<wormhole::WormholeNetwork>(*rig->topo, *rig->router,
                                                         rig->scheme.get(), config);
  return rig;
}

void attach_hook(WormRig& rig) {
  rig.delivered.reserve(1 << 16);
  rig.net->set_delivery_hook([&rig](pkt::Packet&& p, NodeId at) {
    rig.delivered.push_back({at, p.true_source, p.marking_field(), p.hops,
                             (p.wire_bytes() + 15) / 16, p.injected_at,
                             p.delivered_at});
    if (p.trace.size() >= 2 && rig.paths.size() < 20000) {
      rig.paths.add(p.trace, p.dest_node, p.marking_field());
    }
  });
}

/// Checks and hashes the deliveries since the last call (untimed).
/// Returns the flit-hops they account for.
std::uint64_t settle(WormRig& rig, bool expect_wrong, VictimFields* capture) {
  const mark::DdpmIdentifier identifier(*rig.topo);
  std::uint64_t work = 0;
  for (const Delivery& d : rig.delivered) {
    const auto named = identifier.identify(d.at, d.field);
    const NodeId truth = expect_wrong ? (d.truth + 1) % rig.topo->num_nodes() : d.truth;
    rig.wrong += !named || *named != truth;
    work += std::uint64_t(d.hops) * d.flits;
    rig.latency_sum += double(d.delivered_at - d.injected_at);
    if (d.delivered_at < rig.digest_horizon) {
      for (const std::uint64_t v : {std::uint64_t(d.at), std::uint64_t(d.truth),
                                    std::uint64_t(d.field), std::uint64_t(d.hops),
                                    d.injected_at, d.delivered_at}) {
        rig.digest.add(v);
      }
    }
    if (capture != nullptr && capture->at.size() < 200000) {
      capture->at.push_back(d.at);
      capture->field.push_back(d.field);
      capture->truth.push_back(d.truth);
    }
  }
  rig.received += rig.delivered.size();
  rig.flit_hops += work;
  rig.delivered.clear();
  return work;
}

/// Per-step and per-inject spans of a traced chunk.
struct StepSpans {
  std::vector<double> step_ns;
  double inject_ns = 0;
  std::uint64_t injects = 0;
};

/// Runs `chunk` cycles from the rig's current cycle, injecting `sched`.
/// Returns (wall, cpu) seconds of the loop. `spans` non-null = traced.
std::pair<double, double> run_chunk(WormRig& rig, std::vector<Injection>& sched,
                                    std::uint64_t chunk, StepSpans* spans) {
  wormhole::WormholeNetwork& net = *rig.net;
  const std::uint64_t first = net.cycle();
  std::size_t idx = 0;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  if (spans == nullptr) {
    for (std::uint64_t c = first; c < first + chunk; ++c) {
      for (; idx < sched.size() && sched[idx].cycle == c; ++idx) {
        net.inject(std::move(sched[idx].packet), sched[idx].node);
      }
      net.step();
    }
  } else {
    for (std::uint64_t c = first; c < first + chunk; ++c) {
      for (; idx < sched.size() && sched[idx].cycle == c; ++idx) {
        const auto a = std::chrono::steady_clock::now();
        net.inject(std::move(sched[idx].packet), sched[idx].node);
        spans->inject_ns += double(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - a)
                .count());
        ++spans->injects;
      }
      const auto a = std::chrono::steady_clock::now();
      net.step();
      spans->step_ns.push_back(double(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - a)
              .count()));
    }
  }
  const double w1 = wall_now();
  const double c1 = cpu_now();
  rig.injected += idx;
  return {w1 - w0, c1 - c0};
}

/// Drives a rig: warm-up, then timed chunks until `seconds` elapse.
/// Returns the ns-per-flit-hop samples; fills `s` when given, calling
/// `between_chunks` (untimed) after each chunk.
std::vector<double> drive_worm(WormRig& rig, const WormSpec& spec, const Options& o,
                               double seconds, std::uint64_t trace_every,
                               Samples* s, StepSpans* spans, VictimFields* capture,
                               const std::function<void()>& between_chunks = {}) {
  Schedule schedule(*rig.topo, spec.rate, o.seed, trace_every);
  std::vector<Injection> sched;
  rig.digest_horizon = spec.warmup + spec.chunk;
  schedule.fill(0, spec.warmup, sched);
  run_chunk(rig, sched, spec.warmup, nullptr);
  settle(rig, o.expect_wrong, nullptr);

  std::vector<double> ns;
  CpuChooser chooser(speed_probe, kProbeInterval_s);
  const double start = wall_now();
  while (ns.empty() || wall_now() - start < seconds) {
    chooser.maybe_move();
    schedule.fill(rig.net->cycle(), spec.chunk, sched);
    const auto [wall, cpu] = run_chunk(rig, sched, spec.chunk, spans);
    const std::uint64_t work = settle(rig, o.expect_wrong, capture);
    ns.push_back(work ? wall * 1e9 / double(work) : 0.0);
    if (s != nullptr) s->add_run(wall, cpu, double(work));
    if (between_chunks) between_chunks();
  }
  // Untimed drain: every injected packet must come out.
  rig.net->drain(200000);
  settle(rig, o.expect_wrong, capture);
  return ns;
}

void wormhole_workload(const Options& o, Result& r) {
  const WormSpec spec = worm_spec(o);
  Samples s;
  double setup_total = 0;
  auto construct = [&] {
    const double t0 = wall_now();
    auto rig = build_worm(spec.topology);
    s.setup_s.push_back(wall_now() - t0);
    setup_total += s.setup_s.back();
    return rig;
  };
  auto construct_samples = [&](std::unique_ptr<WormRig>& rig) {
    // Three setup samples up front; the last network is kept and run.
    const double rss_before = current_rss_mb();
    rig = construct();
    const double construct_mb = current_rss_mb() - rss_before;
    for (int k = 0; k < 2; ++k) {
      rig.reset();
      rig = construct();
    }
    return construct_mb;
  };
  // More setup samples between chunks while construction is cheap (at
  // most 5% of the run), so they spread over the run's interference.
  const double loop_start = wall_now();
  auto extra_setup = [&] {
    if (setup_total < 0.05 * (wall_now() - loop_start)) construct();
  };
  auto score = [&](const WormRig& rig) {
    if (rig.received > rig.injected) r.fail("wormhole: more deliveries than injections");
    r.attempted += rig.injected;
    r.failed += (rig.injected - std::min(rig.injected, rig.received)) + rig.wrong;
    if (rig.flit_hops == 0) r.fail("wormhole: no flit-hops measured");
  };

  std::unique_ptr<WormRig> rig;
  const double construct_mb = construct_samples(rig);
  attach_hook(*rig);
  if (!o.trace) {
    drive_worm(*rig, spec, o, o.seconds, 0, &s, nullptr, nullptr, extra_setup);
    score(*rig);
    r.digest.add(rig->digest.h);
    emit_end_to_end(r, s);
    return;
  }

  // Traced run: half the time untraced (the overhead baseline), half on a
  // fresh network with telemetry bound and spans around step()/inject().
  const std::vector<double> base =
      drive_worm(*rig, spec, o, o.seconds / 2, 0, nullptr, nullptr, nullptr);
  score(*rig);
  const std::uint64_t base_digest = rig->digest.h;
  rig.reset();

  rig = build_worm(spec.topology);
  telemetry::Registry registry;
  rig->net->bind_telemetry(&registry);
  rig->scheme->bind_telemetry(&registry);
  attach_hook(*rig);
  StepSpans spans;
  VictimFields fields;
  const std::vector<double> traced =
      drive_worm(*rig, spec, o, o.seconds / 2, 16, nullptr, &spans, &fields);
  if (rig->digest.h != base_digest) r.fail("wormhole: tracing changed the outcome");
  r.digest.add(base_digest);
  // The traced network is scored too; its packets are extra attempts.
  score(*rig);

  const telemetry::MetricsSnapshot snap = registry.snapshot();
  auto& L = r.layer;
  // Counts cover the traced network's whole run, drain included.
  L["wormhole.flit_hops"] = double(rig->flit_hops);
  L["wormhole.packets"] = double(rig->received);
  double step_total = 0;
  for (const double v : spans.step_ns) step_total += v;
  L["wormhole.ns_per_step"] = step_total / double(spans.step_ns.size());
  L["wormhole.step_us_p99"] = percentile(spans.step_ns, 0.99) / 1e3;
  L["wormhole.ns_per_inject"] = spans.injects ? spans.inject_ns / double(spans.injects) : 0;
  L["wormhole.vc_allocs"] = double(snap.counter_value("wormhole.vc_allocs"));
  L["wormhole.alloc_stalls"] = double(snap.counter_value("wormhole.alloc_stalls"));
  L["wormhole.credit_stalls"] = double(snap.counter_value("wormhole.credit_stalls"));
  L["wormhole.latency_cycles"] =
      rig->received ? rig->latency_sum / double(rig->received) : 0.0;
  L["wormhole.construct_mb"] = construct_mb;
  L["marking.marks"] = double(snap.counter_sum_prefix("mark.applied"));
  replay_paths(*rig->topo, *rig->router, rig->paths, r);
  replay_identify(*rig->topo, fields, o.expect_wrong, r);
  L["trace.overhead_frac"] = median(traced) / median(base) - 1.0;
  emit_layers(r);
}

// --------------------------------------------------------- stream_replay

flow::TraceGenConfig stream_trace_config(const Options& o) {
  flow::TraceGenConfig g;
  g.seed = o.seed;
  g.attack = flow::AttackShape::kFlood;
  g.attack_sources = o.smoke ? 20000 : 1000000;
  // flow_replay's rule: enough attack flows to cover the source pool.
  const double cover = 1.25 * double(g.attack_sources) / double(g.attack_duration);
  g.attack_rate = std::max(g.attack_rate, cover);
  return g;
}

struct StreamPass {
  double setup_s = 0;
  double parse_s = 0;   // traced: read_csv into a vector
  double ingest_s = 0;  // traced: analyzer.ingest over that vector
  double finish_s = 0;
  double wall = 0;      // whole timed region (parse+ingest+finish)
  double cpu = 0;
  std::vector<double> seg_wall;  // per CSV chunk, then finish
  std::vector<double> seg_cpu;
  std::uint64_t records = 0;
  std::uint64_t malformed = 0;
  stream::StreamReport report;
};

constexpr std::size_t kCsvChunk = 1 << 14;

/// One replay of the generated trace. Untraced: read_csv feeds ingest
/// directly, as flow_replay does. Traced: parse and ingest are timed as
/// separate spans. `keep` (traced) receives the first chunk's records.
StreamPass stream_pass(const Options& o, bool traced, std::vector<flow::FlowRecord>* keep,
                       std::string* keep_csv) {
  StreamPass p;
  flow::TraceGenerator gen(stream_trace_config(o));
  stream::FlowAnalyzerConfig config;
  config.jobs = 2;
  const double t0 = wall_now();
  stream::FlowStreamAnalyzer analyzer(config);
  p.setup_s = wall_now() - t0;

  std::vector<flow::FlowRecord> chunk;
  std::vector<flow::FlowRecord> parsed;
  chunk.reserve(kCsvChunk);
  parsed.reserve(kCsvChunk);
  bool more = true;
  while (more) {
    // Untimed: generate and CSV-encode the next chunk.
    chunk.clear();
    flow::FlowRecord rec;
    while (chunk.size() < kCsvChunk && (more = gen.next(rec))) chunk.push_back(rec);
    if (chunk.empty()) break;
    std::ostringstream os;
    flow::write_csv(os, chunk);
    std::string text = os.str();
    if (keep_csv != nullptr && keep_csv->empty()) *keep_csv = text;
    if (keep != nullptr && keep->empty()) *keep = chunk;

    const double w0 = wall_now();
    const double c0 = cpu_now();
    std::istringstream in(std::move(text));
    flow::CsvStats stats;
    if (!traced) {
      stats = flow::read_csv(in, [&](const flow::FlowRecord& r) { analyzer.ingest(r); });
    } else {
      parsed.clear();
      stats = flow::read_csv(in, [&](const flow::FlowRecord& r) { parsed.push_back(r); });
      const double w1 = wall_now();
      for (const flow::FlowRecord& r : parsed) analyzer.ingest(r);
      p.parse_s += w1 - w0;
      p.ingest_s += wall_now() - w1;
    }
    p.seg_wall.push_back(wall_now() - w0);
    p.seg_cpu.push_back(cpu_now() - c0);
    p.wall += p.seg_wall.back();
    p.cpu += p.seg_cpu.back();
    p.records += stats.records;
    p.malformed += stats.malformed;
  }
  const double w0 = wall_now();
  const double c0 = cpu_now();
  p.report = analyzer.finish();
  p.finish_s = wall_now() - w0;
  p.seg_wall.push_back(p.finish_s);
  p.seg_cpu.push_back(cpu_now() - c0);
  p.wall += p.seg_wall.back();
  p.cpu += p.seg_cpu.back();
  return p;
}

void score_stream(const StreamPass& p, const Options& o, Result& r) {
  const flow::TraceGenConfig g = stream_trace_config(o);
  const std::uint32_t victim = o.expect_wrong ? g.victim + 1 : g.victim;
  std::uint64_t failed = 0;
  failed += !p.report.detection_time.has_value();
  failed += !(p.report.victim_identified && p.report.victim == victim);
  failed += p.report.memory_bytes > (4u << 20);
  r.attempted = 3;
  r.failed = failed;
  if (p.malformed != 0) r.fail("stream_replay: the benchmark's own CSV had malformed lines");
  if (p.report.records != p.records) r.fail("stream_replay: analyzer lost records");
}

void stream_replay(const Options& o, Result& r) {
  Samples s;
  std::string report_json;
  auto account = [&](const StreamPass& p) {
    const std::string json = p.report.to_json();
    if (report_json.empty()) {
      report_json = json;
      score_stream(p, o, r);
    } else if (json != report_json) {
      r.fail("stream_replay: repeated replay of one seed changed the report");
    }
  };
  const double start = wall_now();
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  std::vector<double> base_ns;
  std::vector<std::vector<double>> seg_wall;
  std::vector<std::vector<double>> seg_cpu;
  std::uint64_t pass_records = 0;
  // No CpuChooser here: the analyzer's window close runs on jobs = 2
  // threads, and keeping them to the two fastest CPUs ran slower than
  // leaving them to the scheduler.
  while (base_ns.empty() || wall_now() - start < budget) {
    StreamPass p = stream_pass(o, false, nullptr, nullptr);
    account(p);
    if (!seg_wall.empty() && p.seg_wall.size() != seg_wall.front().size()) {
      r.fail("stream_replay: repeated replay of one seed changed its chunking");
    }
    s.setup_s.push_back(p.setup_s);
    pass_records = p.records;
    base_ns.push_back(p.wall * 1e9 / double(std::max<std::uint64_t>(1, p.records)));
    seg_wall.push_back(std::move(p.seg_wall));
    seg_cpu.push_back(std::move(p.seg_cpu));
  }
  std::cerr << "ddpm_perfbench: stream_replay whole-pass ns_per_op";
  for (const double v : base_ns) std::cerr << ' ' << v;
  std::cerr << '\n';
  s.add_run(segment_floor(seg_wall), segment_floor(seg_cpu), double(pass_records));
  while (s.setup_s.size() < 9) {
    stream::FlowAnalyzerConfig config;
    config.jobs = 2;
    const double t0 = wall_now();
    stream::FlowStreamAnalyzer analyzer(config);
    s.setup_s.push_back(wall_now() - t0);
  }
  r.digest.add(report_json);
  if (!o.trace) {
    emit_end_to_end(r, s);
    return;
  }

  std::vector<flow::FlowRecord> records;
  std::string csv;
  const StreamPass p = stream_pass(o, true, &records, &csv);
  account(p);
  auto& L = r.layer;
  const double n = double(std::max<std::uint64_t>(1, p.records));
  L["flow.records"] = double(p.records);
  L["flow.ns_per_parse"] = p.parse_s * 1e9 / n;
  L["flow.rejected_lines"] = double(p.malformed);
  L["stream.ns_per_ingest"] = p.ingest_s * 1e9 / n;
  L["stream.finish_ms"] = p.finish_s * 1e3;
  L["stream.windows"] = double(p.report.windows);
  L["stream.memory_bytes"] = double(p.report.memory_bytes);
  const flow::TraceGenConfig g = stream_trace_config(o);
  const stream::FlowAnalyzerConfig defaults;
  L["stream.detect_window"] =
      p.report.detection_time
          ? double((*p.report.detection_time - g.attack_start) / defaults.window)
          : 0.0;
  L["stream.ns_per_cms_update"] = ns_per_op(records.size(), [&] {
    stream::CountMinSketch cms(defaults.cms_width, defaults.cms_depth, defaults.seed);
    std::uint64_t acc = 0;
    for (const flow::FlowRecord& rec : records) acc += cms.update(rec.src, rec.packets);
    g_sink = g_sink + acc;
  });
  L["stream.ns_per_topk_update"] = ns_per_op(records.size(), [&] {
    stream::SpaceSavingTopK top(defaults.topk, defaults.seed);
    for (const flow::FlowRecord& rec : records) top.offer(rec.src, rec.packets);
    g_sink = g_sink + top.total();
  });
  L["trace.overhead_frac"] = (p.wall * 1e9 / n) / median(base_ns) - 1.0;
  emit_layers(r);
}

// ----------------------------------------------------------- provenance

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOn = false;
#else
constexpr bool kAssertsOn = true;
#endif

/// Reasons this build must not be measured; empty when it may be.
std::vector<std::string> unfit_build() {
  std::vector<std::string> why;
  const std::string type = build::kBuildType;
  if (type != "RelWithDebInfo" && type != "Release") {
    why.push_back("build type '" + type + "' is not optimized");
  }
  if (kAssertsOn) why.push_back("NDEBUG is not defined");
  if (kSanitized) why.push_back("sanitizer build");
  if (!build::kTelemetryEnabled) why.push_back("telemetry probes compiled out");
  return why;
}

std::string provenance_json(const Options& o) {
  std::ostringstream os;
  os << "{\"git_sha\": \"" << json_escape(build::kGitSha) << "\", \"compiler\": \""
     << json_escape(build::kCompiler) << "\", \"build_type\": \""
     << json_escape(build::kBuildType) << "\", \"telemetry\": "
     << (build::kTelemetryEnabled ? "true" : "false")
     << ", \"cores\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\", \"workload\": \""
     << o.workload << "\", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
     << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"smoke\": " << (o.smoke ? 1 : 0)
     << "}";
  return os.str();
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Result& r, const Options& o) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t k = 0; k < r.metrics.size(); ++k) {
    const auto& [name, vu] = r.metrics[k];
    os << (k ? ", " : "") << '"' << name << "\": {\"value\": " << format_number(vu.first)
       << ", \"unit\": \"" << vu.second << "\"}";
  }
  os << "}, \"digest\": \"" << r.digest.hex() << "\", \"provenance\": "
     << provenance_json(o) << ", \"notes\": [";
  for (std::size_t k = 0; k < r.notes.size(); ++k) {
    os << (k ? ", " : "") << '"' << json_escape(r.notes[k]) << '"';
  }
  os << "]}";
  std::cout << os.str() << std::endl;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
      if (!(o.seconds > 0 && o.seconds <= 600)) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--expect-wrong") {
      o.expect_wrong = true;
    } else {
      throw std::invalid_argument("unknown option: " + arg);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    const std::vector<std::string> unfit = unfit_build();
    if (!unfit.empty()) {
      for (const auto& why : unfit) std::cerr << "ddpm_perfbench: refused: " << why << '\n';
      return 3;
    }
    Result r;
    if (o.workload == "cluster_flood" || o.workload == "cluster_flood_large") {
      cluster_flood(o, r);
    } else if (o.workload == "wormhole_small" || o.workload == "wormhole_large") {
      wormhole_workload(o, r);
    } else if (o.workload == "stream_replay") {
      stream_replay(o, r);
    } else {
      throw std::invalid_argument("unknown workload '" + o.workload + "'");
    }
    print_result(r, o);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ddpm_perfbench: " << e.what() << '\n';
    return 2;
  }
}
