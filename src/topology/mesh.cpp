#include "topology/mesh.hpp"

#include <cstdlib>
#include <sstream>

namespace ddpm::topo {

Mesh::Mesh(std::vector<int> dims) : CartesianTopology(std::move(dims), 2) {
  for (std::size_t d = 0; d < num_dims(); ++d) {
    diameter_ += dim_size(d) - 1;
    // Paper §3 quotes degree 2n, which assumes every dimension has an
    // interior (k >= 3); a radix-2 dimension contributes only one link.
    degree_ += dim_size(d) >= 3 ? 2 : 1;
  }
  build_link_table();
}

std::optional<NodeId> Mesh::neighbor(NodeId node, Port port) const {
  if (port < 0 || port >= num_ports()) return std::nullopt;
  const auto [dim, dir] = port_dim_dir(port);
  Coord c = coord_of(node);
  const int next = int(c[dim]) + dir;
  if (next < 0 || next >= dim_size(dim)) return std::nullopt;  // mesh boundary
  c[dim] = static_cast<Coord::value_type>(next);
  return id_of(c);
}

std::optional<Port> Mesh::port_to(NodeId from, NodeId to) const {
  const Coord a = coord_of(from);
  const Coord b = coord_of(to);
  std::optional<Port> port;
  for (std::size_t d = 0; d < num_dims(); ++d) {
    const int delta = int(b[d]) - int(a[d]);
    if (delta == 0) continue;
    if (std::abs(delta) != 1 || port.has_value()) return std::nullopt;
    port = make_port(d, delta);
  }
  return port;
}

std::string Mesh::spec() const {
  std::ostringstream os;
  os << "mesh:";
  for (std::size_t d = 0; d < num_dims(); ++d) {
    if (d) os << 'x';
    os << dim_size(d);
  }
  return os.str();
}

}  // namespace ddpm::topo
