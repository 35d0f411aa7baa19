// Property sweep across every topology kind: the invariants every regular
// direct network must satisfy, checked exhaustively on small instances.
#include <gtest/gtest.h>

#include <cstdlib>

#include "topology/factory.hpp"
#include "topology/graph.hpp"

namespace ddpm::topo {
namespace {

class TopologyProperties : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { topo_ = make_topology(GetParam()); }
  std::unique_ptr<Topology> topo_;
};

TEST_P(TopologyProperties, IdCoordBijection) {
  for (NodeId id = 0; id < topo_->num_nodes(); ++id) {
    const Coord c = topo_->coord_of(id);
    EXPECT_EQ(c.size(), topo_->num_dims());
    EXPECT_EQ(topo_->id_of(c), id);
    for (std::size_t d = 0; d < c.size(); ++d) {
      EXPECT_GE(c[d], 0);
      EXPECT_LT(c[d], topo_->dim_size(d));
    }
  }
}

TEST_P(TopologyProperties, NeighborSymmetry) {
  for (NodeId a = 0; a < topo_->num_nodes(); ++a) {
    for (Port p = 0; p < topo_->num_ports(); ++p) {
      const auto b = topo_->neighbor(a, p);
      if (!b) continue;
      // The reverse port must exist and lead back.
      const auto back = topo_->port_to(*b, a);
      ASSERT_TRUE(back.has_value()) << GetParam();
      EXPECT_EQ(topo_->neighbor(*b, *back), a);
    }
  }
}

TEST_P(TopologyProperties, NeighborsAreOneHop) {
  for (NodeId a = 0; a < topo_->num_nodes(); ++a) {
    for (NodeId b : topo_->neighbors(a)) {
      EXPECT_EQ(topo_->min_hops(a, b), 1);
      EXPECT_NE(a, b);
    }
  }
}

TEST_P(TopologyProperties, MinHopsMatchesBfsFromNodeZero) {
  const auto dist = bfs_distances(*topo_, 0);
  for (NodeId b = 0; b < topo_->num_nodes(); ++b) {
    EXPECT_EQ(topo_->min_hops(0, b), dist[b]) << GetParam() << " b=" << b;
  }
}

TEST_P(TopologyProperties, MinHopsSymmetric) {
  const NodeId n = topo_->num_nodes();
  for (NodeId a = 0; a < n; a += 3) {
    for (NodeId b = a; b < n; b += 5) {
      EXPECT_EQ(topo_->min_hops(a, b), topo_->min_hops(b, a));
    }
  }
}

TEST_P(TopologyProperties, DiameterIsMaxEccentricity) {
  int worst = 0;
  for (NodeId a = 0; a < topo_->num_nodes(); ++a) {
    for (int d : bfs_distances(*topo_, a)) worst = std::max(worst, d);
  }
  EXPECT_EQ(topo_->diameter(), worst) << GetParam();
}

TEST_P(TopologyProperties, DegreeIsMaxNeighborCount) {
  std::size_t worst = 0;
  for (NodeId a = 0; a < topo_->num_nodes(); ++a) {
    worst = std::max(worst, topo_->neighbors(a).size());
  }
  EXPECT_EQ(std::size_t(topo_->degree()), worst) << GetParam();
}

TEST_P(TopologyProperties, Connected) {
  EXPECT_TRUE(is_connected(*topo_));
}

TEST_P(TopologyProperties, SpecRoundTrips) {
  const auto again = make_topology(topo_->spec());
  EXPECT_EQ(again->num_nodes(), topo_->num_nodes());
  EXPECT_EQ(again->kind(), topo_->kind());
  EXPECT_EQ(again->spec(), topo_->spec());
}

TEST_P(TopologyProperties, LinkTableMatchesVirtualInterface) {
  const LinkTable& table = topo_->link_table();
  ASSERT_EQ(table.kind(), topo_->kind());
  ASSERT_EQ(table.num_nodes(), topo_->num_nodes());
  ASSERT_EQ(table.num_ports(), topo_->num_ports());
  ASSERT_EQ(table.num_dims(), topo_->num_dims());
  for (std::size_t d = 0; d < topo_->num_dims(); ++d) {
    EXPECT_EQ(table.radix(d), topo_->dim_size(d));
  }
  for (NodeId a = 0; a < topo_->num_nodes(); ++a) {
    EXPECT_EQ(table.coord(a), topo_->coord_of(a));
    for (Port p = 0; p < topo_->num_ports(); ++p) {
      const auto b = topo_->neighbor(a, p);
      EXPECT_EQ(table.next_node(a, p), b.value_or(kInvalidNode));
      if (!b) {
        EXPECT_EQ(table.reverse_port(a, p), -1);
        EXPECT_FALSE(table.wraps(a, p));
        continue;
      }
      EXPECT_EQ(table.reverse_port(a, p), *topo_->port_to(*b, a));
      const bool wraps = topo_->kind() == TopologyKind::kTorus &&
                         std::abs(int(topo_->coord_of(*b)[std::size_t(p / 2)]) -
                                  int(topo_->coord_of(a)[std::size_t(p / 2)])) != 1;
      EXPECT_EQ(table.wraps(a, p), wraps) << GetParam() << " " << a << "/" << p;
    }
    for (NodeId b = 0; b < topo_->num_nodes(); b += 3) {
      EXPECT_EQ(table.minimal_hops(a, b), topo_->min_hops(a, b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TopologyProperties,
                         ::testing::Values("mesh:2x2", "mesh:4x4", "mesh:5x3",
                                           "mesh:8x8", "mesh:2x3x4",
                                           "mesh:3x3x3", "torus:3x3",
                                           "torus:4x4", "torus:5x4",
                                           "torus:8x8", "torus:3x3x3",
                                           "torus:4x3x5", "hypercube:1",
                                           "hypercube:2", "hypercube:4",
                                           "hypercube:6"));

TEST(TopologyFactory, RejectsMalformedSpecs) {
  EXPECT_THROW(make_topology("mesh"), std::invalid_argument);
  EXPECT_THROW(make_topology("mesh:"), std::invalid_argument);
  EXPECT_THROW(make_topology("mesh:4x"), std::invalid_argument);
  EXPECT_THROW(make_topology("mesh:x4"), std::invalid_argument);
  EXPECT_THROW(make_topology("ring:8"), std::invalid_argument);
  EXPECT_THROW(make_topology("hypercube:abc"), std::invalid_argument);
  EXPECT_THROW(make_topology("torus:2x2"), std::invalid_argument);
}

TEST(TopologyFactory, ParsesAllKinds) {
  EXPECT_EQ(make_topology("mesh:4x4")->kind(), TopologyKind::kMesh);
  EXPECT_EQ(make_topology("torus:4x4x4")->kind(), TopologyKind::kTorus);
  EXPECT_EQ(make_topology("hypercube:5")->kind(), TopologyKind::kHypercube);
  EXPECT_EQ(to_string(TopologyKind::kMesh), "mesh");
  EXPECT_EQ(to_string(TopologyKind::kTorus), "torus");
  EXPECT_EQ(to_string(TopologyKind::kHypercube), "hypercube");
}

}  // namespace
}  // namespace ddpm::topo
