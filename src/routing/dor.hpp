// Dimension-order routing (deterministic; paper §3 "XY routing" on the
// 2-D mesh, e-cube on the hypercube).
//
// The packet corrects dimensions in ascending order: all dimension-0 hops,
// then dimension 1, and so on. On the torus each dimension takes the
// shorter ring direction. There is exactly one permitted port per hop, so
// a blocked link blocks the packet — the behaviour Figure 2(b) shows.
#pragma once

#include <cstdint>

#include "routing/router.hpp"

namespace ddpm::route {

class DimensionOrderRouter final : public Router {
 public:
  explicit DimensionOrderRouter(const topo::Topology& topo) : Router(topo) {}

  std::string name() const override { return "dor"; }
  bool is_deterministic() const noexcept override { return true; }

  PortList candidates(NodeId current, NodeId dest,
                      Port arrived_on) const override;
};

/// Every productive (distance-reducing) port from `current` toward
/// `target` as a bitmask: bit p is set iff port p is productive. A
/// Cartesian dimension contributes at most one bit — the sign of its
/// coordinate offset, the torus taking the shorter way round with ties
/// going positive (topo::ring_shortest_delta) — and the hypercube mask is
/// `current ^ target`. Ascending bits are ascending dimensions, so the
/// lowest set bit is the dimension-order port. Division-free: the wormhole
/// engine calls it for every head flit that falls back to its escape
/// layer. Ports fit 32 bits because a Cartesian topology has at most
/// 2 * Coord::kMaxDims of them and a hypercube at most kMaxDims.
inline std::uint32_t productive_mask(const topo::LinkTable& table,
                                     NodeId current, NodeId target) noexcept {
  if (table.kind() == topo::TopologyKind::kHypercube) {
    return std::uint32_t(current ^ target);
  }
  const bool torus = table.kind() == topo::TopologyKind::kTorus;
  const topo::Coord& a = table.coord(current);
  const topo::Coord& b = table.coord(target);
  std::uint32_t mask = 0;
  for (std::size_t d = 0; d < table.num_dims(); ++d) {
    const int delta = torus ? topo::ring_shortest_delta(a[d], b[d],
                                                        table.radix(d))
                            : int(b[d]) - int(a[d]);
    // Branch-free: the offset signs of random (node, dest) pairs are
    // unpredictable, and a mispredict per dimension tripled the cost.
    mask |= std::uint32_t(delta != 0) << (2 * d + std::size_t(delta > 0));
  }
  return mask;
}

/// productive_mask as a list in ascending port order: the minimal adaptive
/// candidate set, shared by the adaptive and Valiant routers.
inline PortList productive_ports(const topo::LinkTable& table, NodeId current,
                                 NodeId target) {
  PortList out;
  for (std::uint32_t mask = productive_mask(table, current, target); mask != 0;
       mask &= mask - 1) {
    out.push_back(Port(__builtin_ctz(mask)));
  }
  return out;
}

}  // namespace ddpm::route
