#include "topology/topology.hpp"

#include <bit>
#include <cstdlib>
#include <stdexcept>

namespace ddpm::topo {

std::string to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kMesh: return "mesh";
    case TopologyKind::kTorus: return "torus";
    case TopologyKind::kHypercube: return "hypercube";
  }
  return "unknown";
}

LinkTable::LinkTable(const Topology& topo)
    : kind_(topo.kind()), num_nodes_(topo.num_nodes()), ports_(topo.num_ports()) {
  radix_.reserve(topo.num_dims());
  for (std::size_t d = 0; d < topo.num_dims(); ++d) {
    radix_.push_back(topo.dim_size(d));
  }
  const std::size_t N = std::size_t(num_nodes_);
  const std::size_t P = std::size_t(ports_);
  next_node_.assign(N * P, kInvalidNode);
  reverse_port_.assign(N * P, Port(-1));
  wraps_.assign(N * P, 0);
  coords_.reserve(N);
  for (NodeId n = 0; n < num_nodes_; ++n) coords_.push_back(topo.coord_of(n));
  for (NodeId n = 0; n < num_nodes_; ++n) {
    for (Port p = 0; p < ports_; ++p) {
      const auto nbr = topo.neighbor(n, p);
      if (!nbr.has_value()) continue;
      const std::size_t i = std::size_t(n) * P + std::size_t(p);
      next_node_[i] = *nbr;
      reverse_port_[i] = *topo.port_to(*nbr, n);
      if (kind_ == TopologyKind::kTorus) {
        // Ports follow the cartesian convention (port = 2*dim + dir); a
        // link whose coordinate step in its dimension is not +-1 wraps.
        const std::size_t dim = std::size_t(p / 2);
        const int delta = int(coords_[*nbr][dim]) - int(coords_[n][dim]);
        if (delta != 1 && delta != -1) wraps_[i] = 1;
      }
    }
  }
}

int LinkTable::minimal_hops(NodeId a, NodeId b) const noexcept {
  if (kind_ == TopologyKind::kHypercube) return std::popcount(a ^ b);
  const Coord& ca = coord(a);
  const Coord& cb = coord(b);
  int hops = 0;
  for (std::size_t d = 0; d < radix_.size(); ++d) {
    hops += std::abs(kind_ == TopologyKind::kTorus
                         ? ring_shortest_delta(ca[d], cb[d], radix_[d])
                         : int(cb[d]) - int(ca[d]));
  }
  return hops;
}

int Topology::min_hops(NodeId a, NodeId b) const {
  if (!table_.contains(a) || !table_.contains(b)) {
    throw std::out_of_range("min_hops: bad node id");
  }
  return table_.minimal_hops(a, b);
}

std::vector<NodeId> Topology::neighbors(NodeId node) const {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(num_ports()));
  for (Port p = 0; p < num_ports(); ++p) {
    if (auto n = neighbor(node, p)) out.push_back(*n);
  }
  return out;
}

std::vector<std::pair<NodeId, NodeId>> Topology::links() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId a = 0; a < num_nodes(); ++a) {
    for (Port p = 0; p < num_ports(); ++p) {
      if (auto b = neighbor(a, p)) {
        if (a < *b) out.emplace_back(a, *b);
      }
    }
  }
  return out;
}

}  // namespace ddpm::topo
