// Golden digests for the store-and-forward cluster engine.
//
// The determinism tests compare a run against itself, which cannot catch
// a refactor that changes outcomes consistently. These constants pin the
// full delivery evidence of ClusterNetwork — every Metrics counter plus
// each delivered packet's (id, hops, marking field, delivered_at, trace),
// in delivery order — across mesh/torus/hypercube × dor/adaptive/
// adaptive-misroute under a congesting flood, plus one cell with failed
// links and one with recorded traces. A change to the switch, routing,
// marking or topology layers that alters any outcome changes a digest.
//
// Regenerate only for an intended behaviour change: the failure message
// prints the observed digest of each cell.
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/network.hpp"

namespace ddpm::cluster {
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
  // Integer-valued samples: count, sum, min and max are exact in double
  // and independent of floating-point evaluation details.
  fnv.add(s.count());
  fnv.add(s.sum());
  fnv.add(s.min());
  fnv.add(s.max());
}

void add_metrics(Fnv& fnv, const Metrics& m) {
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
}

struct Cell {
  const char* topology;
  const char* router;
  std::vector<std::pair<topo::NodeId, topo::NodeId>> failed_links;
  bool record_traces;
  std::uint64_t golden;
};

std::uint64_t run_cell(const Cell& cell) {
  ClusterConfig config;
  config.topology = cell.topology;
  config.router = cell.router;
  config.scheme = "ddpm";
  config.benign_rate_per_node = 0.002;
  config.queue_capacity = 8;
  config.record_traces = cell.record_traces;
  config.seed = 2024;
  ClusterNetwork net(config);
  for (const auto& [a, b] : cell.failed_links) net.failures().fail(a, b);

  attack::AttackConfig attack;
  attack.kind = attack::AttackKind::kUdpFlood;
  attack.victim = 7;
  attack.zombies = {0, 11, 19, 23};
  attack.rate_per_zombie = 0.02;
  attack.start_time = 5000;
  attack.stop_time = 40000;
  net.set_attack(attack);

  Fnv fnv;
  std::uint64_t deliveries = 0;
  net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId at) {
    ++deliveries;
    fnv.add(p.id);
    fnv.add(std::uint64_t(at));
    fnv.add(std::uint64_t(p.hops));
    fnv.add(std::uint64_t(p.marking_field()));
    fnv.add(p.delivered_at);
    fnv.add(std::uint64_t(p.trace.size()));
    for (const topo::NodeId n : p.trace) fnv.add(std::uint64_t(n));
  });
  net.start();
  net.run_until(50000);
  EXPECT_GT(deliveries, 500u) << cell.topology << ' ' << cell.router;
  add_metrics(fnv, net.metrics());
  return fnv.value();
}

void PrintTo(const Cell& cell, std::ostream* os) {
  *os << cell.topology << ' ' << cell.router;
}

class ClusterGolden : public ::testing::TestWithParam<Cell> {};

TEST_P(ClusterGolden, DigestMatches) {
  const Cell& cell = GetParam();
  const std::uint64_t got = run_cell(cell);
  EXPECT_EQ(got, cell.golden)
      << cell.topology << ' ' << cell.router << ": observed digest 0x"
      << std::hex << got;
}

const Cell kCells[] = {
    {"mesh:6x6", "dor", {}, false, 0x886215f99a00920bULL},
    {"mesh:6x6", "adaptive", {}, false, 0xf75c3ecdb7c85f02ULL},
    {"mesh:6x6", "adaptive-misroute", {}, false, 0xf75c3ecdb7c85f02ULL},
    {"torus:5x5", "dor", {}, false, 0x0fc562d2089afd59ULL},
    {"torus:5x5", "adaptive", {}, false, 0xba01a6f431386322ULL},
    {"torus:5x5", "adaptive-misroute", {}, false, 0xba01a6f431386322ULL},
    {"hypercube:5", "dor", {}, false, 0x34cf5f636b1eb9d8ULL},
    {"hypercube:5", "adaptive", {}, false, 0xdda544725c208191ULL},
    {"hypercube:5", "adaptive-misroute", {}, false, 0xdda544725c208191ULL},
    // Failed links: no-route drops under DOR-like blocking and misroutes
    // around the holes.
    {"mesh:6x6", "adaptive-misroute", {{13, 14}, {8, 14}, {1, 7}}, false,
     0xd026fa138571df2fULL},
    // Per-hop traces ride in the digest.
    {"torus:5x5", "adaptive", {}, true, 0x5cbebf8edb8b57e4ULL},
};

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = std::string(info.param.topology) + "_" + info.param.router;
  if (!info.param.failed_links.empty()) name += "_failed_links";
  if (info.param.record_traces) name += "_traces";
  for (char& c : name) {
    if (c == ':' || c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Cells, ClusterGolden, ::testing::ValuesIn(kCells),
                         cell_name);

}  // namespace
}  // namespace ddpm::cluster
