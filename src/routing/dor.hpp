// Dimension-order routing (deterministic; paper §3 "XY routing" on the
// 2-D mesh, e-cube on the hypercube).
//
// The packet corrects dimensions in ascending order: all dimension-0 hops,
// then dimension 1, and so on. On the torus each dimension takes the
// shorter ring direction. There is exactly one permitted port per hop, so
// a blocked link blocks the packet — the behaviour Figure 2(b) shows.
#pragma once

#include "routing/router.hpp"

namespace ddpm::route {

class DimensionOrderRouter final : public Router {
 public:
  explicit DimensionOrderRouter(const topo::Topology& topo) : Router(topo) {}

  std::string name() const override { return "dor"; }
  bool is_deterministic() const noexcept override { return true; }
  // One port, chosen from (current, dest) coordinates alone.
  bool has_static_candidates() const noexcept override { return true; }

  PortList candidates(NodeId current, NodeId dest,
                      Port arrived_on) const override;
};

/// Signed step direction (-1 or +1) that dimension-order routing takes in
/// dimension `d` from coordinate `a` toward `b`, or 0 if already aligned.
/// Exposed for reuse by the adaptive routers.
int productive_direction(const topo::LinkTable& table, std::size_t d, int a,
                         int b);

/// Every productive (distance-reducing) port from `current` toward
/// `target`, in ascending port order: the minimal adaptive candidate set,
/// shared by the adaptive and Valiant routers.
PortList productive_ports(const topo::LinkTable& table, NodeId current,
                          NodeId target);

}  // namespace ddpm::route
