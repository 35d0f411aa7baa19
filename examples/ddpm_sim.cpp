// ddpm_sim — command-line scenario driver for the whole library.
//
// Runs a configurable attack scenario end to end and prints the scenario
// report. Every knob of ScenarioConfig is reachable from the command line,
// making this the tool for parameter sweeps outside the fixed benches.
//
//   $ ./ddpm_sim --topology torus:8x8 --router adaptive --scheme ddpm
//       (continued:) --attack udp-flood --zombies 4 --victim 42 --attack-rate 0.01
//   $ ./ddpm_sim --help
//
// Exit status: 0 on success; 2 on a usage error (unknown option, missing
// or malformed value, with the flag named); 1 on any other error.
#include <charconv>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>

#include <fstream>

#include "core/experiment.hpp"
#include "core/report_json.hpp"
#include "core/sis.hpp"
#include "analysis/attack_graph.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/trace.hpp"
#include "trace/trace.hpp"

namespace {

using namespace ddpm;

void usage() {
  std::cout <<
      "ddpm_sim — DDoS source-identification scenario driver\n\n"
      "cluster options:\n"
      "  --topology SPEC      mesh:AxB[xC] | torus:AxB[xC] | hypercube:N\n"
      "                       (default torus:8x8)\n"
      "  --router NAME        dor|xy|west-first|north-last|negative-first|\n"
      "                       adaptive|adaptive-misroute|oracle (default adaptive)\n"
      "  --scheme NAME        ddpm|dpm|ppm-full|ppm-xor|ppm-bitdiff|none\n"
      "                       (default ddpm; also used as the identifier)\n"
      "  --pattern NAME       uniform|transpose|complement|bit-reverse|hotspot\n"
      "  --benign-rate R      benign packets/tick/node (default 0.0003)\n"
      "  --seed N             RNG seed (default 42)\n"
      "  --ingress-filter     enable RFC 2267 filtering at source switches\n\n"
      "attack options:\n"
      "  --attack KIND        none|udp-flood|syn-flood|worm|reflector\n"
      "                       (default udp-flood)\n"
      "  --victim N           victim node id (default: last node)\n"
      "  --zombies N          number of compromised nodes (default 4)\n"
      "  --attack-rate R      attack packets/tick/zombie (default 0.01)\n"
      "  --spoof NAME         none|random-cluster|random-any|victim-reflect\n"
      "  --attack-start T     attack start tick (default 50000)\n\n"
      "pipeline options:\n"
      "  --detector NAME      rate-threshold|entropy|cusum|syn-half-open|\n"
      "                       sketch-entropy|heavy-hitter|sketch-cusum\n"
      "                       (default rate-threshold; sketch-* run in\n"
      "                       bounded memory, see docs/STREAMING.md)\n"
      "  --threshold R        detection rate threshold (default 0.005)\n"
      "  --pulse-period T     pulsing attack period (0 = continuous)\n"
      "  --pulse-duty R       on-fraction of each pulse period\n"
      "  --no-block           identify only, do not block\n"
      "  --classifier-fp R    classifier false-positive rate (default 0)\n"
      "  --duration T         simulated ticks (default 400000)\n"
      "  --repeat N           run N seeds and report aggregate statistics\n"
      "  --json               emit the config+report as JSON on stdout\n"
      "  --trace FILE         write a Chrome trace_event JSON of the run\n"
      "                       (open in chrome://tracing or Perfetto)\n"
      "  --metrics FILE       write the telemetry registry snapshot as JSON\n"
      "                       (works with --repeat: replications merged)\n"
      "  --delivery-log FILE  write a CSV log of victim deliveries\n"
      "  --dot FILE           write a Graphviz attack graph of verdicts\n";
}

/// A bad command line (unknown option, missing or malformed value): reported
/// with the flag's name, exit code 2.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

attack::AttackKind parse_kind(const std::string& s) {
  if (s == "none") return attack::AttackKind::kNone;
  if (s == "udp-flood") return attack::AttackKind::kUdpFlood;
  if (s == "syn-flood") return attack::AttackKind::kSynFlood;
  if (s == "worm") return attack::AttackKind::kWorm;
  if (s == "reflector") return attack::AttackKind::kReflector;
  throw UsageError("unknown attack kind: " + s);
}

attack::SpoofStrategy parse_spoof(const std::string& s) {
  if (s == "none") return attack::SpoofStrategy::kNone;
  if (s == "random-cluster") return attack::SpoofStrategy::kRandomCluster;
  if (s == "random-any") return attack::SpoofStrategy::kRandomAny;
  if (s == "victim-reflect") return attack::SpoofStrategy::kVictimReflect;
  throw UsageError("unknown spoof strategy: " + s);
}

/// Parses a flag's non-negative integer value no larger than `max`. A sign,
/// trailing characters or an out-of-range value is a usage error.
std::uint64_t parse_count(
    const std::string& flag, const std::string& text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || v > max) {
    throw UsageError(flag + " needs a non-negative integer" +
                     (max < std::numeric_limits<std::uint64_t>::max()
                          ? " <= " + std::to_string(max)
                          : std::string()) +
                     ", got '" + text + "'");
  }
  return v;
}

/// Parses a flag's finite, non-negative real value.
double parse_rate(const std::string& flag, const std::string& text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(v) ||
      v < 0.0) {
    throw UsageError(flag + " needs a finite number >= 0, got '" + text + "'");
  }
  return v;
}

/// Parses a flag's fraction: a real value in [0, 1].
double parse_fraction(const std::string& flag, const std::string& text) {
  const double v = parse_rate(flag, text);
  if (v > 1.0) {
    throw UsageError(flag + " needs a number in [0, 1], got '" + text + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  core::ScenarioConfig config;
  config.cluster.topology = "torus:8x8";
  config.cluster.router = "adaptive";
  config.cluster.scheme = "ddpm";
  config.cluster.benign_rate_per_node = 0.0003;
  config.identifier = "ddpm";
  config.attack.kind = attack::AttackKind::kUdpFlood;
  config.attack.rate_per_zombie = 0.01;
  config.attack.start_time = 50000;
  config.detect_rate_threshold = 0.005;
  config.duration = 400000;

  std::size_t zombie_count = 4;
  bool victim_given = false;
  bool json_output = false;
  std::string trace_path;
  std::string metrics_path;
  std::string delivery_log_path;
  std::string dot_path;
  std::size_t repeat = 0;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw UsageError(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else if (arg == "--topology") {
        config.cluster.topology = value();
      } else if (arg == "--router") {
        config.cluster.router = value();
      } else if (arg == "--scheme") {
        config.cluster.scheme = value();
        config.identifier = config.cluster.scheme;
      } else if (arg == "--pattern") {
        config.cluster.pattern = value();
      } else if (arg == "--detector") {
        config.detector = value();
      } else if (arg == "--benign-rate") {
        config.cluster.benign_rate_per_node = parse_rate(arg, value());
      } else if (arg == "--seed") {
        config.cluster.seed = parse_count(arg, value());
      } else if (arg == "--ingress-filter") {
        config.cluster.ingress_filtering = true;
      } else if (arg == "--attack") {
        config.attack.kind = parse_kind(value());
      } else if (arg == "--victim") {
        config.attack.victim = topo::NodeId(parse_count(
            arg, value(), std::numeric_limits<topo::NodeId>::max()));
        victim_given = true;
      } else if (arg == "--zombies") {
        zombie_count = parse_count(arg, value());
      } else if (arg == "--attack-rate") {
        config.attack.rate_per_zombie = parse_rate(arg, value());
      } else if (arg == "--spoof") {
        config.attack.spoof = parse_spoof(value());
      } else if (arg == "--attack-start") {
        config.attack.start_time = parse_count(arg, value());
      } else if (arg == "--pulse-period") {
        config.attack.pulse_period = parse_count(arg, value());
      } else if (arg == "--pulse-duty") {
        config.attack.pulse_duty = parse_fraction(arg, value());
      } else if (arg == "--threshold") {
        config.detect_rate_threshold = parse_rate(arg, value());
      } else if (arg == "--no-block") {
        config.auto_block = false;
      } else if (arg == "--classifier-fp") {
        config.classifier_false_positive_rate = parse_fraction(arg, value());
      } else if (arg == "--duration") {
        config.duration = parse_count(arg, value());
      } else if (arg == "--json") {
        json_output = true;
      } else if (arg == "--trace") {
        trace_path = value();
      } else if (arg == "--metrics") {
        metrics_path = value();
      } else if (arg == "--delivery-log") {
        delivery_log_path = value();
      } else if (arg == "--dot") {
        dot_path = value();
      } else if (arg == "--repeat") {
        repeat = parse_count(arg, value());
      } else {
        throw UsageError("unknown option: " + arg);
      }
    }

    // Late resolution: victim and zombies depend on the topology size.
    const auto probe = topo::make_topology(config.cluster.topology);
    if (!victim_given) config.attack.victim = probe->num_nodes() - 1;
    if (config.attack.kind != attack::AttackKind::kNone) {
      netsim::Rng rng(config.cluster.seed ^ 0x20b1e5ULL);
      config.attack.zombies =
          attack::pick_zombies(*probe, zombie_count, config.attack.victim, rng);
    }

    if (!json_output) {
      std::cout << "scenario: " << config.cluster.topology << ", router "
                << config.cluster.router << ", scheme "
                << config.cluster.scheme << ", attack "
                << attack::to_string(config.attack.kind) << " on node "
                << config.attack.victim << " by "
                << config.attack.zombies.size() << " zombies (spoof "
                << attack::to_string(config.attack.spoof) << ")\n\n";
    }

    auto open_output = [](const std::string& path) {
      std::ofstream file(path);
      if (!file) throw std::invalid_argument("cannot open file: " + path);
      return file;
    };
    auto write_metrics = [&](const telemetry::MetricsSnapshot& snapshot) {
      if (metrics_path.empty()) return;
      auto file = open_output(metrics_path);
      file << snapshot.to_json() << '\n';
      if (!json_output) {
        std::cout << "metrics: " << snapshot.series() << " series -> "
                  << metrics_path << '\n';
      }
    };

    if (repeat > 0) {
      if (!trace_path.empty()) {
        throw std::invalid_argument("--trace needs a single run (drop --repeat)");
      }
      const auto summary = core::run_repeated_n(config, repeat);
      write_metrics(summary.telemetry);
      std::cout << summary.to_string() << '\n';
      return 0;
    }

    core::SourceIdentificationSystem system(config);
    telemetry::Tracer chrome_tracer;
    if (!trace_path.empty()) {
      telemetry::name_standard_processes(chrome_tracer);
      system.set_tracer(&chrome_tracer);
    }
    std::ofstream delivery_log_file;
    std::unique_ptr<trace::TraceWriter> tracer;
    if (!delivery_log_path.empty()) {
      delivery_log_file = open_output(delivery_log_path);
      tracer = std::make_unique<trace::TraceWriter>(delivery_log_file);
      const auto victim = config.attack.victim;
      system.set_observer([&tracer, victim](const pkt::Packet& p,
                                            topo::NodeId at) {
        if (at == victim) tracer->record(p, at);
      });
    }
    const core::ScenarioReport report = system.run();
    if (!trace_path.empty()) {
      auto trace_file = open_output(trace_path);
      chrome_tracer.flush(trace_file);
      if (!json_output) {
        std::cout << "trace: " << chrome_tracer.retained() << " events ("
                  << chrome_tracer.dropped() << " dropped) -> " << trace_path
                  << '\n';
      }
    }
    write_metrics(report.telemetry);
    if (!dot_path.empty()) {
      analysis::AttackGraph graph(config.attack.victim);
      for (const auto& e : report.identifications) {
        graph.add_source(e.identified);
      }
      const auto topo = topo::make_topology(config.cluster.topology);
      std::ofstream dot_file(dot_path);
      if (!dot_file) {
        throw std::invalid_argument("cannot open dot file: " + dot_path);
      }
      dot_file << graph.to_dot(topo.get());
      if (!json_output) {
        std::cout << "attack graph (" << report.identifications.size()
                  << " verdicts) -> " << dot_path << "\n";
      }
    }
    if (tracer && !json_output) {
      std::cout << "delivery log: " << tracer->records_written()
                << " victim deliveries -> " << delivery_log_path << "\n\n";
    }
    if (json_output) {
      std::cout << core::to_json(config, report) << '\n';
      return 0;
    }
    std::cout << report.summary() << '\n';
    if (!report.identifications.empty()) {
      std::cout << "\nidentifications:\n";
      for (const auto& e : report.identifications) {
        std::cout << "  t=" << e.when << "  node " << e.identified
                  << (e.correct ? "" : "  (innocent!)") << '\n';
      }
    }
    return 0;
  } catch (const UsageError& err) {
    std::cerr << "error: " << err.what() << " (try --help)\n";
    return 2;
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << '\n';
    return 1;
  }
}
