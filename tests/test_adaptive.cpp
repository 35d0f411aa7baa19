#include "routing/adaptive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <optional>
#include <set>

#include "marking/walk.hpp"
#include "routing/oracle.hpp"
#include "topology/factory.hpp"
#include "topology/graph.hpp"
#include "topology/mesh.hpp"

namespace ddpm::route {
namespace {

using mark::walk_packet;
using mark::WalkOutcome;
using topo::Coord;

TEST(Adaptive, CandidatesAreExactlyProductivePorts) {
  topo::Mesh m({4, 4});
  AdaptiveRouter router(m);
  const auto cand = router.candidates(m.id_of(Coord{1, 1}),
                                      m.id_of(Coord{3, 3}), kLocalPort);
  EXPECT_EQ(cand.size(), 2u);  // east + south
  for (Port p : cand) {
    const auto next = m.neighbor(m.id_of(Coord{1, 1}), p);
    ASSERT_TRUE(next.has_value());
    EXPECT_LT(m.min_hops(*next, m.id_of(Coord{3, 3})),
              m.min_hops(m.id_of(Coord{1, 1}), m.id_of(Coord{3, 3})));
  }
}

TEST(Adaptive, MinimalDeliveryEverywhere) {
  for (const char* spec : {"mesh:4x4", "torus:4x4", "hypercube:4"}) {
    const auto topo = topo::make_topology(spec);
    AdaptiveRouter router(*topo);
    for (topo::NodeId s = 0; s < topo->num_nodes(); s += 3) {
      for (topo::NodeId d = 0; d < topo->num_nodes(); ++d) {
        if (s == d) continue;
        mark::WalkOptions options;
        options.seed = s * 1000 + d;
        const auto walk = walk_packet(*topo, router, nullptr, s, d, options);
        ASSERT_TRUE(walk.delivered()) << spec;
        EXPECT_EQ(walk.hops, topo->min_hops(s, d)) << spec;
      }
    }
  }
}

TEST(Adaptive, PathVariesWithSeedUnlikeDeterministic) {
  // The property that defeats path-recording traceback (paper §4): same
  // (src, dst), different paths.
  topo::Mesh m({6, 6});
  AdaptiveRouter router(m);
  const auto s = m.id_of(Coord{0, 0});
  const auto d = m.id_of(Coord{5, 5});
  std::set<std::vector<topo::NodeId>> paths;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    mark::WalkOptions options;
    options.seed = seed;
    paths.insert(walk_packet(m, router, nullptr, s, d, options).path);
  }
  EXPECT_GT(paths.size(), 5u);
}

TEST(Adaptive, CongestionAwareSelection) {
  // With one productive port congested, the router must choose the other.
  topo::Mesh m({4, 4});
  AdaptiveRouter router(m);

  class FakeCongestion final : public LinkStateView {
   public:
    explicit FakeCongestion(const topo::Topology& topo) : topo_(topo) {}
    bool link_usable(topo::NodeId node, Port port) const override {
      return topo_.neighbor(node, port).has_value();
    }
    double congestion(topo::NodeId, Port port) const override {
      return port == 1 ? 100.0 : 0.0;  // east port congested
    }
   private:
    const topo::Topology& topo_;
  } links(m);

  netsim::Rng rng(1);
  // From (1,1) to (3,3): east congested -> must pick south.
  const auto port = router.select_output(m.id_of(Coord{1, 1}),
                                         m.id_of(Coord{3, 3}), kLocalPort,
                                         links, rng);
  ASSERT_TRUE(port.has_value());
  EXPECT_EQ(*port, 3);  // dim-1 plus (south)
}

TEST(Adaptive, MinimalVariantBlockedWhenAllProductiveFailed) {
  topo::Mesh m({4, 4});
  AdaptiveRouter router(m);
  topo::LinkFailureSet failures;
  const auto s = m.id_of(Coord{0, 0});
  failures.fail(s, m.id_of(Coord{1, 0}));
  failures.fail(s, m.id_of(Coord{0, 1}));
  mark::WalkOptions options;
  options.failures = &failures;
  const auto walk =
      walk_packet(m, router, nullptr, s, m.id_of(Coord{3, 3}), options);
  EXPECT_EQ(walk.outcome, WalkOutcome::kBlocked);
}

TEST(Adaptive, MisroutingVariantEscapesTheSameBlock) {
  topo::Mesh m({4, 4});
  MisroutingAdaptiveRouter router(m);
  topo::LinkFailureSet failures;
  const auto s = m.id_of(Coord{1, 1});
  // Fail both productive links toward (3,3).
  failures.fail(s, m.id_of(Coord{2, 1}));
  failures.fail(s, m.id_of(Coord{1, 2}));
  mark::WalkOptions options;
  options.failures = &failures;
  options.seed = 7;
  const auto walk =
      walk_packet(m, router, nullptr, s, m.id_of(Coord{3, 3}), options);
  EXPECT_TRUE(walk.delivered());
  EXPECT_GT(walk.hops, m.min_hops(s, m.id_of(Coord{3, 3})));  // non-minimal
}

TEST(Adaptive, MisrouteFallbackExcludesBacktrack) {
  topo::Mesh m({4, 4});
  MisroutingAdaptiveRouter router(m);
  const auto cur = m.id_of(Coord{1, 1});
  const auto dst = m.id_of(Coord{3, 1});
  // Arrived from the west; fallback may contain north/south ports and the
  // west port is excluded (180-degree reversal).
  const auto fb = router.fallback_candidates(cur, dst, 0);
  EXPECT_EQ(std::find(fb.begin(), fb.end(), 0), fb.end());
  EXPECT_FALSE(fb.empty());
}

TEST(Oracle, MatchesBfsUnderFailures) {
  topo::Mesh m({4, 4});
  OracleRouter router(m);
  topo::LinkFailureSet failures;
  failures.fail(m.id_of(Coord{1, 0}), m.id_of(Coord{2, 0}));
  failures.fail(m.id_of(Coord{1, 1}), m.id_of(Coord{2, 1}));
  const auto s = m.id_of(Coord{0, 0});
  const auto d = m.id_of(Coord{3, 0});
  mark::WalkOptions options;
  options.failures = &failures;
  const auto walk = walk_packet(m, router, nullptr, s, d, options);
  ASSERT_TRUE(walk.delivered());
  EXPECT_EQ(walk.hops, topo::hop_distance(m, s, d, &failures));
}

TEST(Oracle, BlockedOnlyWhenDisconnected) {
  topo::Mesh m({3, 3});
  OracleRouter router(m);
  topo::LinkFailureSet failures;
  const auto corner = m.id_of(Coord{0, 0});
  failures.fail(corner, m.id_of(Coord{1, 0}));
  failures.fail(corner, m.id_of(Coord{0, 1}));
  mark::WalkOptions options;
  options.failures = &failures;
  EXPECT_EQ(walk_packet(m, router, nullptr, corner, m.id_of(Coord{2, 2}),
                        options)
                .outcome,
            WalkOutcome::kBlocked);
}

TEST(RouterFactory, BuildsEveryKnownRouter) {
  topo::Mesh m({4, 4});
  for (const char* name : {"dor", "xy", "ecube", "west-first", "north-last",
                           "negative-first", "adaptive", "adaptive-misroute",
                           "oracle"}) {
    const auto router = make_router(name, m);
    ASSERT_NE(router, nullptr) << name;
  }
  EXPECT_THROW(make_router("bogus", m), std::invalid_argument);
}

/// route::pick before it lost its second PortList, kept verbatim as the
/// oracle: the rewrite must pick the same port with the same draws.
std::optional<Port> reference_pick(const PortList& ports, NodeId current,
                                   const LinkStateView& links,
                                   netsim::Rng& rng) {
  double best = std::numeric_limits<double>::infinity();
  PortList best_ports;
  for (Port p : ports) {
    if (!links.link_usable(current, p)) continue;
    const double c = links.congestion(current, p);
    if (c < best) {
      best = c;
      best_ports.assign(1, p);
    } else if (c == best) {
      best_ports.push_back(p);
    }
  }
  if (best_ports.empty()) return std::nullopt;
  if (best_ports.size() == 1) return best_ports.front();
  return best_ports[rng.next_below(best_ports.size())];
}

/// Per-port usability and congestion, set directly by the test.
class TableLinkState final : public LinkStateView {
 public:
  bool link_usable(NodeId, Port port) const override {
    return usable[std::size_t(port)];
  }
  double congestion(NodeId, Port port) const override {
    return cost[std::size_t(port)];
  }
  bool usable[PortList::kCapacity] = {};
  double cost[PortList::kCapacity] = {};
};

TEST(Pick, MatchesTheTwoListReferenceOnRandomCosts) {
  // Costs from a small set so ties are common; +inf and NaN congestion and
  // unusable ports mixed in; lists up to the full radix, duplicates allowed.
  const double inf = std::numeric_limits<double>::infinity();
  const double kCosts[] = {0.0, 1.0, 1.0, 2.0, 3.0, inf, inf,
                           std::numeric_limits<double>::quiet_NaN()};
  netsim::Rng gen(0x91c4);
  std::size_t draws = 0;
  std::size_t nones = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    TableLinkState links;
    for (std::size_t p = 0; p < PortList::kCapacity; ++p) {
      links.usable[p] = gen.next_below(5) != 0;
      links.cost[p] = kCosts[gen.next_below(std::size(kCosts))];
    }
    PortList ports;
    const std::size_t n = gen.next_below(trial % 4 == 0 ? 33 : 9);
    for (std::size_t i = 0; i < n; ++i) {
      ports.push_back(Port(gen.next_below(PortList::kCapacity)));
    }
    netsim::Rng a(std::uint64_t(trial) * 7919 + 1);
    netsim::Rng b = a;
    const auto want = reference_pick(ports, 0, links, a);
    const auto got = pick(ports, 0, links, b);
    ASSERT_EQ(got, want) << "trial " << trial;
    const std::uint64_t next = a.next_u64();
    ASSERT_EQ(b.next_u64(), next) << "trial " << trial << ": draw count";
    netsim::Rng untouched(std::uint64_t(trial) * 7919 + 1);
    draws += untouched.next_u64() != next;
    nones += !want.has_value();
  }
  // The grid reaches every branch: draws, single ties and no usable port.
  EXPECT_GT(draws, 1000u);
  EXPECT_GT(nones, 100u);
}

TEST(Pick, TiesAtInfinityAreBrokenByOneDrawAndAFiniteCostWins) {
  const double inf = std::numeric_limits<double>::infinity();
  TableLinkState links;
  for (std::size_t p = 0; p < 4; ++p) {
    links.usable[p] = true;
    links.cost[p] = inf;
  }
  netsim::Rng rng(5);
  netsim::Rng probe = rng;
  const auto tie = pick({0, 1, 2, 3}, 0, links, rng);
  ASSERT_TRUE(tie.has_value());
  EXPECT_EQ(*tie, Port(probe.next_below(4)));
  links.cost[2] = 9.0;
  netsim::Rng fixed(5);
  EXPECT_EQ(pick({0, 1, 2, 3}, 0, links, fixed), Port(2));
  EXPECT_EQ(fixed.next_u64(), netsim::Rng(5).next_u64())
      << "a single minimum draws nothing";
  links.usable[2] = false;
  links.usable[0] = links.usable[1] = links.usable[3] = false;
  EXPECT_EQ(pick({0, 1, 2, 3}, 0, links, fixed), std::nullopt);
}

}  // namespace
}  // namespace ddpm::route
