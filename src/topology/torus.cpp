#include "topology/torus.hpp"

#include <sstream>

#include "core/check.hpp"

namespace ddpm::topo {

Torus::Torus(std::vector<int> dims) : CartesianTopology(std::move(dims), 3) {
  for (std::size_t d = 0; d < num_dims(); ++d) diameter_ += dim_size(d) / 2;
  build_link_table();
}

std::optional<NodeId> Torus::neighbor(NodeId node, Port port) const {
  if (port < 0 || port >= num_ports()) return std::nullopt;
  const auto [dim, dir] = port_dim_dir(port);
  Coord c = coord_of(node);
  const int k = dim_size(dim);
  // Wrap in unsigned space: coord + dir + k is in [k-1, 2k] for a valid
  // coordinate, so the modular reduction never touches signed overflow.
  // Audited wrap arithmetic (neighbor codec); hot paths read the
  // LinkTable built from it instead of re-deriving this.
  const unsigned wrapped =
      (unsigned(int(c[dim]) + dir + k)) % unsigned(k);
  c[dim] = static_cast<Coord::value_type>(wrapped);
  return id_of(c);
}

std::optional<Port> Torus::port_to(NodeId from, NodeId to) const {
  const Coord a = coord_of(from);
  const Coord b = coord_of(to);
  std::optional<Port> port;
  for (std::size_t d = 0; d < num_dims(); ++d) {
    if (a[d] == b[d]) continue;
    const int k = dim_size(d);
    const int plus = (int(a[d]) + 1) % k;
    const int minus = (int(a[d]) - 1 + k) % k;
    int dir;
    if (int(b[d]) == plus) {
      dir = +1;
    } else if (int(b[d]) == minus) {
      dir = -1;
    } else {
      return std::nullopt;
    }
    if (port.has_value()) return std::nullopt;  // differs in two dimensions
    port = make_port(d, dir);
  }
  return port;
}

int Torus::ring_delta(int a, int b, std::size_t d) const noexcept {
  DDPM_CHECK(d < num_dims(), "ring_delta: dimension out of range");
  const int k = dim_size(d);
  DDPM_CHECK(a >= 0 && a < k && b >= 0 && b < k,
             "ring_delta: coordinate outside [0, k)");
  // k even and delta == k/2: +k/2 (positive direction), per contract.
  return ring_shortest_delta(a, b, k);
}

std::string Torus::spec() const {
  std::ostringstream os;
  os << "torus:";
  for (std::size_t d = 0; d < num_dims(); ++d) {
    if (d) os << 'x';
    os << dim_size(d);
  }
  return os.str();
}

}  // namespace ddpm::topo
