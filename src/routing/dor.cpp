#include "routing/dor.hpp"

#include "core/check.hpp"

namespace ddpm::route {

namespace {

constexpr Port cartesian_port(std::size_t dim, int dir) noexcept {
  return static_cast<Port>(2 * dim + (dir > 0 ? 1 : 0));
}

}  // namespace

int productive_direction(const topo::LinkTable& table, std::size_t d, int a,
                         int b) {
  if (a == b) return 0;
  if (table.kind() == topo::TopologyKind::kTorus) {
    // Shorter way round; ring_shortest_delta ties go positive.
    return topo::ring_shortest_delta(a, b, table.radix(d)) > 0 ? +1 : -1;
  }
  return b > a ? +1 : -1;
}

PortList productive_ports(const topo::LinkTable& table, NodeId current,
                          NodeId target) {
  PortList out;
  if (current == target) return out;
  if (table.kind() == topo::TopologyKind::kHypercube) {
    const NodeId diff = current ^ target;
    for (Port p = 0; p < table.num_ports(); ++p) {
      if (diff & (NodeId(1) << p)) out.push_back(p);
    }
    return out;
  }
  const topo::Coord& a = table.coord(current);
  const topo::Coord& b = table.coord(target);
  for (std::size_t d = 0; d < table.num_dims(); ++d) {
    const int dir = productive_direction(table, d, a[d], b[d]);
    if (dir != 0) out.push_back(cartesian_port(d, dir));
  }
  DDPM_DCHECK(out.size() <= std::size_t(table.num_ports()),
              "more productive ports than switch ports");
  return out;
}

PortList DimensionOrderRouter::candidates(NodeId current, NodeId dest,
                                          Port /*arrived_on*/) const {
  if (current == dest) return {};
  if (table_.kind() == topo::TopologyKind::kHypercube) {
    // e-cube: flip the lowest-order differing bit.
    const NodeId diff = current ^ dest;
    for (Port p = 0; p < table_.num_ports(); ++p) {
      if (diff & (NodeId(1) << p)) return {p};
    }
    return {};
  }
  const topo::Coord& a = table_.coord(current);
  const topo::Coord& b = table_.coord(dest);
  for (std::size_t d = 0; d < table_.num_dims(); ++d) {
    const int dir = productive_direction(table_, d, a[d], b[d]);
    if (dir != 0) {
      const Port p = cartesian_port(d, dir);
      DDPM_DCHECK(p >= 0 && p < table_.num_ports(),
                  "dimension-order port escaped the switch radix");
      return {p};
    }
  }
  return {};
}

}  // namespace ddpm::route
