// Golden digests for the wormhole engine.
//
// The determinism tests compare a run against itself, which cannot catch
// a refactor that changes outcomes consistently. These constants pin the
// full delivery evidence of WormholeNetwork — each delivered packet's
// (at, true_source, hops, delivered_at, marking field, trace), in delivery
// order, plus delivered(), dropped_ttl(), flits_in_flight(),
// stall_cycles() and the final cycle() — across mesh/torus/hypercube ×
// dor/adaptive/adaptive-misroute, the three mesh turn models, Valiant on
// a torus, and one escape-free torus ring cell that wedges (its digest
// pins the deadlock point). The load is heavy enough that the escape
// layer and credit stalls fire in every escape-enabled cell.
//
// With telemetry compiled in, each cell also pins the telemetry snapshot
// (`to_csv()`: every VC allocation, allocation/credit stall, forwarded
// flit and buffer-depth sample) as a second digest; a telemetry-off build
// pins delivery evidence only.
//
// Regenerate only for an intended behaviour change: the failure message
// prints the observed digests of each cell.
#include <cstdint>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "marking/ddpm.hpp"
#include "routing/router.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/registry.hpp"
#include "topology/factory.hpp"
#include "wormhole/wormhole.hpp"

namespace ddpm::wormhole {
namespace {

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const std::string& s) {
    add(std::uint64_t(s.size()));
    for (const char c : s) {
      h_ ^= std::uint8_t(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

enum class Load {
  /// Bernoulli injection at every node toward uniform random destinations,
  /// mixed 5- and 14-flit packets, then a drain.
  kUniform,
  /// Every node sends 14-flit packets halfway round its row and column
  /// rings (a tie, so all of it goes the same way round): the textbook
  /// hold-and-wait cycle when there is no escape layer.
  kRing,
};

constexpr std::uint8_t kTtl = 255;

struct Cell {
  const char* topology;
  const char* router;
  Load load;
  bool disable_escape;
  std::uint8_t initial_ttl;
  std::uint64_t golden;            ///< delivery evidence
  std::uint64_t golden_telemetry;  ///< telemetry snapshot (telemetry builds)
};

pkt::Packet make_packet(NodeId src, NodeId dst, std::uint32_t payload) {
  pkt::Packet p;
  p.header = pkt::IpHeader(src + 1, dst + 1, pkt::IpProto::kUdp,
                           std::uint16_t(payload));
  p.true_source = src;
  p.dest_node = dst;
  p.payload_bytes = payload;
  p.trace.push_back(src);  // opt into per-hop path tracing
  return p;
}

struct Digests {
  std::uint64_t delivery = 0;
  std::uint64_t telemetry = 0;
};

Digests run_cell(const Cell& cell) {
  const auto topo = topo::make_topology(cell.topology);
  const auto router = route::make_router(cell.router, *topo);
  mark::DdpmScheme scheme(*topo);
  WormholeConfig config;
  config.disable_escape = cell.disable_escape;
  config.initial_ttl = cell.initial_ttl;
  if (cell.load == Load::kRing) config.buffer_flits = 2;
  WormholeNetwork net(*topo, *router, &scheme, config);
  telemetry::Registry registry;
  net.bind_telemetry(&registry);

  Fnv fnv;
  std::uint64_t deliveries = 0;
  net.set_delivery_hook([&](pkt::Packet&& p, NodeId at) {
    ++deliveries;
    fnv.add(std::uint64_t(at));
    fnv.add(std::uint64_t(p.true_source));
    fnv.add(std::uint64_t(p.hops));
    fnv.add(p.delivered_at);
    fnv.add(std::uint64_t(p.marking_field()));
    fnv.add(std::uint64_t(p.trace.size()));
    for (const NodeId n : p.trace) fnv.add(std::uint64_t(n));
  });

  const NodeId n = topo->num_nodes();
  if (cell.load == Load::kUniform) {
    netsim::Rng rng(2024);
    for (int cycle = 0; cycle < 1500; ++cycle) {
      for (NodeId s = 0; s < n; ++s) {
        if (!rng.next_bool(0.04)) continue;
        auto d = NodeId(rng.next_below(n));
        if (d == s) d = (d + 1 == n) ? 0 : d + 1;
        net.inject(make_packet(s, d, rng.next_bool(0.5) ? 60u : 200u), s);
      }
      net.step();
    }
    EXPECT_TRUE(net.drain(2000000)) << cell.topology << ' ' << cell.router;
    EXPECT_GT(deliveries, 500u) << cell.topology << ' ' << cell.router;
    if (cell.initial_ttl < kTtl) {
      EXPECT_GT(net.dropped_ttl(), 0u) << "the TTL discard path never ran";
    }
  } else {
    for (int round = 0; round < 30; ++round) {
      for (NodeId s = 0; s < n; ++s) {
        const topo::Coord c = topo->coord_of(s);
        for (std::size_t dim = 0; dim < c.size(); ++dim) {
          topo::Coord d = c;
          const int k = topo->dim_size(dim);
          d[dim] = topo::Coord::value_type((c[dim] + k / 2) % k);
          net.inject(make_packet(s, topo->id_of(d), 200), s);
        }
      }
    }
    EXPECT_FALSE(net.drain(500000)) << "expected the escape-free ring to wedge";
    EXPECT_TRUE(net.deadlocked());
  }
  fnv.add(net.delivered());
  fnv.add(net.dropped_ttl());
  fnv.add(net.flits_in_flight());
  fnv.add(net.stall_cycles());
  fnv.add(net.cycle());

  Digests out;
  out.delivery = fnv.value();
#if DDPM_TELEMETRY_ENABLED
  const telemetry::MetricsSnapshot snap = registry.snapshot();
  if (!cell.disable_escape) {
    // The escape layer is entered only when no adaptive VC is free, and
    // it is the only place an allocation stall is counted.
    EXPECT_GT(snap.counter_value("wormhole.alloc_stalls"), 0u)
        << cell.topology << ' ' << cell.router << ": escape layer idle";
    EXPECT_GT(snap.counter_value("wormhole.credit_stalls"), 0u)
        << cell.topology << ' ' << cell.router << ": no credit stall";
  }
  Fnv tfnv;
  tfnv.add(snap.to_csv());
  out.telemetry = tfnv.value();
#endif
  return out;
}

void PrintTo(const Cell& cell, std::ostream* os) {
  *os << cell.topology << ' ' << cell.router;
}

class WormholeGolden : public ::testing::TestWithParam<Cell> {};

TEST_P(WormholeGolden, DigestMatches) {
  const Cell& cell = GetParam();
  const Digests got = run_cell(cell);
  EXPECT_EQ(got.delivery, cell.golden)
      << cell.topology << ' ' << cell.router << ": observed digest 0x"
      << std::hex << got.delivery;
#if DDPM_TELEMETRY_ENABLED
  EXPECT_EQ(got.telemetry, cell.golden_telemetry)
      << cell.topology << ' ' << cell.router
      << ": observed telemetry digest 0x" << std::hex << got.telemetry;
#endif
}

// adaptive-misroute shares adaptive's digests: the wormhole engine blocks
// rather than misroutes, so it reads only the minimal candidate set.
const Cell kCells[] = {
    {"mesh:8x8", "dor", Load::kUniform, false, kTtl,
     0x7e18471fdb629ec8ULL, 0xb7ed5f05a84997bcULL},
    {"mesh:8x8", "adaptive", Load::kUniform, false, kTtl,
     0x57635c2be4e6c796ULL, 0x80c438e8b16e9324ULL},
    {"mesh:8x8", "adaptive-misroute", Load::kUniform, false, kTtl,
     0x57635c2be4e6c796ULL, 0x80c438e8b16e9324ULL},
    {"torus:4x4", "dor", Load::kUniform, false, kTtl,
     0x0c76b85b06bbcd76ULL, 0xfeeac1a397f3a3f3ULL},
    {"torus:4x4", "adaptive", Load::kUniform, false, kTtl,
     0x9069227d6ff559eaULL, 0x5e60442759606e8fULL},
    {"torus:4x4", "adaptive-misroute", Load::kUniform, false, kTtl,
     0x9069227d6ff559eaULL, 0x5e60442759606e8fULL},
    {"torus:4x4x4", "dor", Load::kUniform, false, kTtl,
     0x9353432aedb59922ULL, 0x2dfc82349f8bee19ULL},
    {"torus:4x4x4", "adaptive", Load::kUniform, false, kTtl,
     0xc3f869ce7acab1c9ULL, 0xcf12c2d99b3dee8bULL},
    {"torus:4x4x4", "adaptive-misroute", Load::kUniform, false, kTtl,
     0xc3f869ce7acab1c9ULL, 0xcf12c2d99b3dee8bULL},
    {"hypercube:6", "dor", Load::kUniform, false, kTtl,
     0xfea5de4ea672620cULL, 0xcb2f33e2a06a4945ULL},
    {"hypercube:6", "adaptive", Load::kUniform, false, kTtl,
     0x460fd16072b42b40ULL, 0xdc93123ababfd15cULL},
    {"hypercube:6", "adaptive-misroute", Load::kUniform, false, kTtl,
     0x460fd16072b42b40ULL, 0xdc93123ababfd15cULL},
    // Arrival-dependent turn models feed the adaptive layer.
    {"mesh:8x8", "west-first", Load::kUniform, false, kTtl,
     0x78eadac8c030fe88ULL, 0xe98d0d1e38f0564dULL},
    {"mesh:8x8", "north-last", Load::kUniform, false, kTtl,
     0x884639cc62ba5acbULL, 0xfcab4092ff20b300ULL},
    {"mesh:8x8", "negative-first", Load::kUniform, false, kTtl,
     0x931d693a709b3a99ULL, 0x77df3b1d6e65068aULL},
    // Non-minimal detours; a short TTL also drives the discard sink.
    {"torus:8x8", "valiant", Load::kUniform, false, 12,
     0x0eb9fd363f74bf6dULL, 0x71e7fbc594189fc9ULL},
    // No escape layer: the ring wedges; the digest pins where.
    {"torus:4x4", "adaptive", Load::kRing, true, kTtl,
     0xd6e17c71ccea46bfULL, 0xfa4e74d03373a712ULL},
};

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = std::string(info.param.topology) + "_" + info.param.router;
  if (info.param.disable_escape) name += "_no_escape";
  for (char& c : name) {
    if (c == ':' || c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Cells, WormholeGolden, ::testing::ValuesIn(kCells),
                         cell_name);

}  // namespace
}  // namespace ddpm::wormhole
