// Golden digests for full detect -> identify -> block runs.
//
// test_cluster_golden.cpp pins the switch fabric, but none of its cells
// ever installs a block, so nothing there pins what a blocked source does:
// its benign and attack processes park at their first refusal (no further
// draws or events), so `blocked_at_source` reads at most two per blocked
// node. These cells run the whole SourceIdentificationSystem with
// auto_block on, one per attack kind and spoofing strategy, and digest
// every Metrics counter, the detection time, each identification, and the
// report's outcome counters. A change that lets a blocked node draw or fire
// again — or alters anything downstream of it — changes a digest.
//
// Every delivered packet (id, node, claimed source, protocol, flags, flow
// id, delivery time, marking field) rides in the digest too. Two cells
// clear the filter late in the run: a source rule holds for the rest of the
// run, so the clear resumes no parked process. The reflector never sends to
// the victim and would never block on its own; it and the worm also block a
// zombie at a fixed time through the filter.
//
// IdentifiesExactlyTheAttackers checks the identifications themselves,
// independent of the digest and of how same-tick events are ordered.
//
// Regenerate only for an intended behaviour change: the failure message
// prints the observed digest of each cell.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/sis.hpp"

namespace ddpm::core {
namespace {

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add_stat(Fnv& fnv, const netsim::RunningStat& s) {
  // Integer-valued samples: count, sum, min and max are exact in double.
  fnv.add(s.count());
  fnv.add(s.sum());
  fnv.add(s.min());
  fnv.add(s.max());
}

struct Cell {
  const char* name;
  attack::AttackKind kind;
  attack::SpoofStrategy spoof;
  netsim::SimTime pulse_period;
  /// Zombie blocked by hand at `manual_block_at` (0 = none).
  topo::NodeId manual_block;
  netsim::SimTime manual_block_at;
  /// Every filter rule is dropped at this time (0 = never).
  netsim::SimTime clear_at;
  std::uint64_t golden;
};

struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t blocked_at_source = 0;
  std::set<topo::NodeId> true_sources;
  std::set<topo::NodeId> identified_sources;
  /// Nodes infected by the end of the run (worm cells only).
  std::set<topo::NodeId> infected;
};

Outcome run_cell(const Cell& cell) {
  ScenarioConfig config;
  config.cluster.topology = "torus:6x6";
  config.cluster.router = "adaptive";
  config.cluster.scheme = "ddpm";
  config.cluster.benign_rate_per_node = 0.0005;
  config.cluster.seed = 77;
  config.identifier = "ddpm";
  config.detect_rate_threshold = 0.005;
  config.detect_half_life = 2000;
  config.auto_block = true;
  config.duration = 150000;

  config.attack.kind = cell.kind;
  config.attack.spoof = cell.spoof;
  config.attack.victim = 35;
  config.attack.zombies = {2, 9, 16, 30};
  config.attack.rate_per_zombie = 0.01;
  config.attack.start_time = 20000;
  config.attack.pulse_period = cell.pulse_period;
  config.attack.pulse_duty = 0.5;
  config.attack.worm_scan_rate = 0.01;

  SourceIdentificationSystem system(config);
  cluster::ClusterNetwork& net = system.network();
  if (cell.manual_block_at != 0) {
    const topo::NodeId node = cell.manual_block;
    net.sim().schedule_at(cell.manual_block_at,
                          [filter = &net.filter(), node]() {
                            filter->block_source_node(node);
                          });
  }
  if (cell.clear_at != 0) {
    net.sim().schedule_at(cell.clear_at,
                          [filter = &net.filter()]() { filter->clear(); });
  }
  Fnv fnv;
  system.set_observer([&fnv](const pkt::Packet& p, topo::NodeId at) {
    fnv.add(p.id);
    fnv.add(std::uint64_t(at));
    fnv.add(std::uint64_t(p.header.source()));
    fnv.add(std::uint64_t(p.header.protocol()));
    fnv.add(std::uint64_t(p.tcp_flags));
    fnv.add(p.flow);
    fnv.add(p.delivered_at);
    fnv.add(std::uint64_t(p.marking_field()));
  });
  const ScenarioReport report = system.run();

  const cluster::Metrics& m = report.metrics;
  for (const std::uint64_t v :
       {m.injected_benign, m.injected_attack, m.blocked_at_source,
        m.dropped_spoofed_ingress, m.dropped_queue_full, m.dropped_no_route,
        m.dropped_ttl, m.delivered_benign, m.delivered_attack,
        m.filtered_at_victim}) {
    fnv.add(v);
  }
  add_stat(fnv, m.latency_benign);
  add_stat(fnv, m.latency_attack);
  add_stat(fnv, m.hops);
  fnv.add(report.detection_time.value_or(~std::uint64_t{0}));
  fnv.add(std::uint64_t(report.identifications.size()));
  for (const IdentificationEvent& e : report.identifications) {
    fnv.add(e.when);
    fnv.add(std::uint64_t(e.identified));
    fnv.add(std::uint64_t(e.true_source));
    fnv.add(std::uint64_t(e.correct));
  }
  for (const topo::NodeId n : report.blocked_sources) fnv.add(std::uint64_t(n));
  fnv.add(std::uint64_t(report.true_positives));
  fnv.add(std::uint64_t(report.false_positives));
  fnv.add(report.attack_delivered_before_block);
  fnv.add(report.attack_delivered_after_block);
  fnv.add(report.packets_to_first_identification);
  fnv.add(std::uint64_t(net.infected_count()));
  Outcome outcome{fnv.value(), m.blocked_at_source, report.true_sources,
                  report.identified_sources, {}};
  for (topo::NodeId n = 0; n < net.topology().num_nodes(); ++n) {
    if (net.node_infected(n)) outcome.infected.insert(n);
  }
  return outcome;
}

void PrintTo(const Cell& cell, std::ostream* os) { *os << cell.name; }

class SisGolden : public ::testing::TestWithParam<Cell> {};

using attack::AttackKind;
using attack::SpoofStrategy;

TEST_P(SisGolden, DigestMatches) {
  const Cell& cell = GetParam();
  const Outcome got = run_cell(cell);
  // Every cell must exercise the blocked-source path it exists to pin.
  EXPECT_GT(got.blocked_at_source, 0u) << cell.name;
  EXPECT_EQ(got.digest, cell.golden)
      << cell.name << ": observed digest 0x" << std::hex << got.digest;
}

// Digest-independent evidence: whatever order same-tick events take, no
// cell names an innocent node, and every flood cell names all its zombies.
TEST_P(SisGolden, IdentifiesExactlyTheAttackers) {
  const Cell& cell = GetParam();
  const Outcome got = run_cell(cell);
  switch (cell.kind) {
    case AttackKind::kReflector:
      // Reflectors, not the zombies, answer the spoofed SYNs: the victim
      // receives no attack packet from a zombie, so nobody is named.
      EXPECT_TRUE(got.identified_sources.empty()) << cell.name;
      break;
    case AttackKind::kWorm:
      // Scanning reaches the victim from every infected node, so each
      // named node must be infected; the patient zeros are among them.
      for (const topo::NodeId n : got.identified_sources) {
        EXPECT_EQ(got.infected.count(n), 1u) << cell.name << ": node " << n;
      }
      EXPECT_TRUE(std::includes(got.infected.begin(), got.infected.end(),
                                got.true_sources.begin(),
                                got.true_sources.end()))
          << cell.name;
      break;
    default:
      EXPECT_EQ(got.identified_sources, got.true_sources) << cell.name;
      break;
  }
}

const Cell kCells[] = {
    {"udp_flood_spoof_none", AttackKind::kUdpFlood, SpoofStrategy::kNone, 0,
     0, 0, 0, 0x2ced26dcd81176f6ULL},
    {"udp_flood_spoof_random_cluster", AttackKind::kUdpFlood,
     SpoofStrategy::kRandomCluster, 0, 0, 0, 110000, 0x0cf2f4109c068d2aULL},
    {"udp_flood_spoof_random_any", AttackKind::kUdpFlood,
     SpoofStrategy::kRandomAny, 0, 0, 0, 110000, 0xcdd29f9f43d79513ULL},
    {"syn_flood", AttackKind::kSynFlood, SpoofStrategy::kRandomCluster, 0, 0,
     0, 0, 0xb86db4dcb8921324ULL},
    {"reflector", AttackKind::kReflector, SpoofStrategy::kRandomCluster, 0, 9,
     60000, 0, 0x9400ed65c33e20ceULL},
    {"worm", AttackKind::kWorm, SpoofStrategy::kRandomCluster, 0, 16, 60000,
     0, 0xc183141a9c81c0d6ULL},
    // Every zombie is blocked inside the first on-phase and parks there, so
    // this run matches udp_flood_spoof_random_cluster event for event.
    {"pulsing_udp_flood", AttackKind::kUdpFlood, SpoofStrategy::kRandomCluster,
     8000, 0, 0, 0, 0x0cf2f4109c068d2aULL},
};

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Cells, SisGolden, ::testing::ValuesIn(kCells),
                         cell_name);

}  // namespace
}  // namespace ddpm::core
