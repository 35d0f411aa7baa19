#include "routing/dor.hpp"

#include <gtest/gtest.h>

#include "marking/walk.hpp"
#include "topology/factory.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/torus.hpp"

namespace ddpm::route {
namespace {

using mark::walk_packet;
using topo::Coord;

TEST(DimensionOrder, XyRoutesDimension0First) {
  topo::Mesh m({4, 4});
  DimensionOrderRouter router(m);
  const auto walk = walk_packet(m, router, nullptr, m.id_of(Coord{0, 0}),
                                m.id_of(Coord{3, 2}));
  ASSERT_TRUE(walk.delivered());
  // Expect x-correcting hops first, then y.
  const std::vector<topo::NodeId> expected{
      m.id_of(Coord{0, 0}), m.id_of(Coord{1, 0}), m.id_of(Coord{2, 0}),
      m.id_of(Coord{3, 0}), m.id_of(Coord{3, 1}), m.id_of(Coord{3, 2})};
  EXPECT_EQ(walk.path, expected);
}

TEST(DimensionOrder, ExactlyOneTurn) {
  topo::Mesh m({6, 6});
  DimensionOrderRouter router(m);
  const auto walk = walk_packet(m, router, nullptr, m.id_of(Coord{5, 5}),
                                m.id_of(Coord{1, 0}));
  ASSERT_TRUE(walk.delivered());
  // Count direction changes along the path: XY routing allows one turn.
  int turns = 0;
  std::optional<std::size_t> prev_dim;
  for (std::size_t i = 1; i < walk.path.size(); ++i) {
    const Coord a = m.coord_of(walk.path[i - 1]);
    const Coord b = m.coord_of(walk.path[i]);
    const std::size_t dim = (a[0] != b[0]) ? 0 : 1;
    if (prev_dim && dim != *prev_dim) ++turns;
    prev_dim = dim;
  }
  EXPECT_LE(turns, 1);
}

TEST(DimensionOrder, DeterministicSamePathEveryTime) {
  topo::Mesh m({5, 5});
  DimensionOrderRouter router(m);
  EXPECT_TRUE(router.is_deterministic());
  mark::WalkOptions a, b;
  a.seed = 1;
  b.seed = 999;  // different RNG must not matter
  const auto w1 = walk_packet(m, router, nullptr, 3, 21, a);
  const auto w2 = walk_packet(m, router, nullptr, 3, 21, b);
  EXPECT_EQ(w1.path, w2.path);
}

TEST(DimensionOrder, MinimalOnAllPairs) {
  topo::Mesh m({4, 4});
  DimensionOrderRouter router(m);
  for (topo::NodeId s = 0; s < m.num_nodes(); ++s) {
    for (topo::NodeId d = 0; d < m.num_nodes(); ++d) {
      if (s == d) continue;
      const auto walk = walk_packet(m, router, nullptr, s, d);
      ASSERT_TRUE(walk.delivered());
      EXPECT_EQ(walk.hops, m.min_hops(s, d));
    }
  }
}

TEST(DimensionOrder, TorusTakesShorterRingDirection) {
  topo::Torus t({8, 8});
  DimensionOrderRouter router(t);
  // From (0,0) to (6,0): going minus (wrapping) is 2 hops, plus is 6.
  const auto walk = walk_packet(t, router, nullptr, t.id_of(Coord{0, 0}),
                                t.id_of(Coord{6, 0}));
  ASSERT_TRUE(walk.delivered());
  EXPECT_EQ(walk.hops, 2);
  EXPECT_EQ(walk.path[1], t.id_of(Coord{7, 0}));
}

TEST(DimensionOrder, TorusMinimalOnAllPairs) {
  topo::Torus t({5, 4});
  DimensionOrderRouter router(t);
  for (topo::NodeId s = 0; s < t.num_nodes(); s += 2) {
    for (topo::NodeId d = 0; d < t.num_nodes(); ++d) {
      if (s == d) continue;
      const auto walk = walk_packet(t, router, nullptr, s, d);
      ASSERT_TRUE(walk.delivered());
      EXPECT_EQ(walk.hops, t.min_hops(s, d));
    }
  }
}

TEST(DimensionOrder, HypercubeEcubeFlipsLowestBitFirst) {
  topo::Hypercube h(4);
  DimensionOrderRouter router(h);
  const auto walk = walk_packet(h, router, nullptr, 0b0000, 0b1011);
  ASSERT_TRUE(walk.delivered());
  const std::vector<topo::NodeId> expected{0b0000, 0b0001, 0b0011, 0b1011};
  EXPECT_EQ(walk.path, expected);
}

TEST(DimensionOrder, BlockedByFailedLinkOnItsOnlyPath) {
  // Figure 2(b)'s premise: deterministic routing cannot sidestep a failed
  // link on its fixed path.
  topo::Mesh m({4, 4});
  DimensionOrderRouter router(m);
  topo::LinkFailureSet failures;
  failures.fail(m.id_of(Coord{1, 0}), m.id_of(Coord{2, 0}));
  mark::WalkOptions options;
  options.failures = &failures;
  const auto walk = walk_packet(m, router, nullptr, m.id_of(Coord{0, 0}),
                                m.id_of(Coord{3, 0}), options);
  EXPECT_EQ(walk.outcome, mark::WalkOutcome::kBlocked);
}

TEST(DimensionOrder, NoCandidatesAtDestination) {
  topo::Mesh m({4, 4});
  DimensionOrderRouter router(m);
  EXPECT_TRUE(router.candidates(5, 5, kLocalPort).empty());
}

TEST(ProductiveMask, MeshTorusAndHypercubeSemantics) {
  const topo::Mesh mesh({8, 8});
  const topo::LinkTable& m = mesh.link_table();
  const auto mesh_mask = [&](Coord a, Coord b) {
    return productive_mask(m, mesh.id_of(a), mesh.id_of(b));
  };
  EXPECT_EQ(mesh_mask({2, 0}, {5, 0}), 0b0010u);  // +x
  EXPECT_EQ(mesh_mask({5, 0}, {2, 0}), 0b0001u);  // -x
  EXPECT_EQ(mesh_mask({3, 0}, {3, 0}), 0u);
  EXPECT_EQ(mesh_mask({1, 1}, {3, 0}), 0b0110u);  // +x and -y
  const topo::Torus torus({8, 8});
  const topo::LinkTable& t = torus.link_table();
  const auto torus_mask = [&](Coord a, Coord b) {
    return productive_mask(t, torus.id_of(a), torus.id_of(b));
  };
  EXPECT_EQ(torus_mask({0, 0}, {6, 0}), 0b0001u);  // wrap is shorter
  EXPECT_EQ(torus_mask({0, 0}, {3, 0}), 0b0010u);
  EXPECT_EQ(torus_mask({0, 0}, {4, 0}), 0b0010u);  // tie goes positive
  EXPECT_EQ(torus_mask({0, 7}, {0, 4}), 0b0100u);  // -y, not the wrap
  const topo::Hypercube cube(5);
  EXPECT_EQ(productive_mask(cube.link_table(), 0b00110, 0b10011), 0b10101u);
}

// The parent formulas, kept verbatim as the oracle for the mask-based
// productive_ports and dimension-order candidates: a per-dimension
// direction over the modular ring delta.
int oracle_ring_delta(int a, int b, int k) {
  const int delta = ((b - a) % k + k) % k;
  return delta > k / 2 ? delta - k : delta;
}

int oracle_direction(const topo::LinkTable& table, std::size_t d, int a,
                     int b) {
  if (a == b) return 0;
  if (table.kind() == topo::TopologyKind::kTorus) {
    return oracle_ring_delta(a, b, table.radix(d)) > 0 ? +1 : -1;
  }
  return b > a ? +1 : -1;
}

Port oracle_port(std::size_t dim, int dir) {
  return static_cast<Port>(2 * dim + (dir > 0 ? 1 : 0));
}

PortList oracle_productive_ports(const topo::LinkTable& table,
                                 topo::NodeId current, topo::NodeId target) {
  PortList out;
  if (current == target) return out;
  if (table.kind() == topo::TopologyKind::kHypercube) {
    const topo::NodeId diff = current ^ target;
    for (Port p = 0; p < table.num_ports(); ++p) {
      if (diff & (topo::NodeId(1) << p)) out.push_back(p);
    }
    return out;
  }
  const Coord& a = table.coord(current);
  const Coord& b = table.coord(target);
  for (std::size_t d = 0; d < table.num_dims(); ++d) {
    const int dir = oracle_direction(table, d, a[d], b[d]);
    if (dir != 0) out.push_back(oracle_port(d, dir));
  }
  return out;
}

PortList oracle_dor_candidates(const topo::LinkTable& table,
                               topo::NodeId current, topo::NodeId dest) {
  if (current == dest) return {};
  if (table.kind() == topo::TopologyKind::kHypercube) {
    const topo::NodeId diff = current ^ dest;
    for (Port p = 0; p < table.num_ports(); ++p) {
      if (diff & (topo::NodeId(1) << p)) return {p};
    }
    return {};
  }
  const Coord& a = table.coord(current);
  const Coord& b = table.coord(dest);
  for (std::size_t d = 0; d < table.num_dims(); ++d) {
    const int dir = oracle_direction(table, d, a[d], b[d]);
    if (dir != 0) return {oracle_port(d, dir)};
  }
  return {};
}

TEST(ProductiveMask, AllPairsMatchTheDirectionOracle) {
  for (const char* spec :
       {"mesh:5x4", "torus:5x5", "torus:6x4", "torus:4x4x4", "hypercube:5"}) {
    const auto topo = topo::make_topology(spec);
    const topo::LinkTable& table = topo->link_table();
    const DimensionOrderRouter dor(*topo);
    for (topo::NodeId s = 0; s < table.num_nodes(); ++s) {
      for (topo::NodeId d = 0; d < table.num_nodes(); ++d) {
        const PortList want = oracle_productive_ports(table, s, d);
        ASSERT_EQ(productive_ports(table, s, d), want)
            << spec << ' ' << s << "->" << d;
        std::uint32_t want_mask = 0;
        for (const Port p : want) want_mask |= std::uint32_t(1) << p;
        ASSERT_EQ(productive_mask(table, s, d), want_mask)
            << spec << ' ' << s << "->" << d;
        ASSERT_EQ(dor.candidates(s, d, kLocalPort),
                  oracle_dor_candidates(table, s, d))
            << spec << ' ' << s << "->" << d;
      }
    }
  }
}

}  // namespace
}  // namespace ddpm::route
