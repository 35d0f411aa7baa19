#include "topology/hypercube.hpp"

#include <bit>
#include <sstream>
#include <stdexcept>

namespace ddpm::topo {

Hypercube::Hypercube(int n) : n_(n) {
  if (n < 1 || n > int(Coord::kMaxDims)) {
    throw std::invalid_argument("Hypercube: dimension must be in [1, 16]");
  }
  build_link_table();
}

Coord Hypercube::coord_of(NodeId id) const {
  if (id >= num_nodes()) throw std::out_of_range("coord_of: bad node id");
  auto c = Coord(std::size_t(n_));  // zero vector with n_ dimensions
  for (int d = 0; d < n_; ++d) {
    c[std::size_t(d)] = static_cast<Coord::value_type>((id >> d) & 1u);
  }
  return c;
}

NodeId Hypercube::id_of(const Coord& c) const {
  if (c.size() != std::size_t(n_)) throw std::invalid_argument("id_of: bad dims");
  NodeId id = 0;
  for (int d = 0; d < n_; ++d) {
    const auto bit = c[std::size_t(d)];
    if (bit != 0 && bit != 1) throw std::out_of_range("id_of: coordinate not 0/1");
    id |= NodeId(bit) << d;
  }
  return id;
}

std::optional<NodeId> Hypercube::neighbor(NodeId node, Port port) const {
  if (port < 0 || port >= n_) return std::nullopt;
  return node ^ (NodeId(1) << port);
}

std::optional<Port> Hypercube::port_to(NodeId from, NodeId to) const {
  const NodeId diff = from ^ to;
  if (std::popcount(diff) != 1) return std::nullopt;
  return std::countr_zero(diff);
}

std::string Hypercube::spec() const {
  std::ostringstream os;
  os << "hypercube:" << n_;
  return os.str();
}

}  // namespace ddpm::topo
