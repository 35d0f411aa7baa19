#include "topology/cartesian.hpp"

#include <limits>
#include <stdexcept>

namespace ddpm::topo {

CartesianTopology::CartesianTopology(std::vector<int> dims, int min_radix)
    : dims_(std::move(dims)) {
  if (dims_.empty()) {
    throw std::invalid_argument("CartesianTopology: need at least 1 dimension");
  }
  if (dims_.size() > Coord::kMaxDims) {
    throw std::invalid_argument("CartesianTopology: too many dimensions");
  }
  std::uint64_t total = 1;
  for (int k : dims_) {
    if (k < min_radix) {
      throw std::invalid_argument("CartesianTopology: radix below minimum");
    }
    total *= std::uint64_t(k);
    if (total > std::numeric_limits<NodeId>::max()) {
      throw std::invalid_argument("CartesianTopology: node count overflow");
    }
  }
  num_nodes_ = static_cast<NodeId>(total);
  // Row-major strides: the last dimension varies fastest.
  strides_.assign(dims_.size(), 1);
  for (std::size_t d = dims_.size(); d-- > 1;) {
    strides_[d - 1] = strides_[d] * NodeId(dims_[d]);
  }
}

Coord CartesianTopology::coord_of(NodeId id) const {
  if (id >= num_nodes_) throw std::out_of_range("coord_of: bad node id");
  Coord c(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    // The id<->coord codec IS the division; hot paths never call it —
    // they read the LinkTable coordinates precomputed from it.
    c[d] = static_cast<Coord::value_type>((id / strides_[d]) %
                                          NodeId(dims_[d]));
  }
  return c;
}

NodeId CartesianTopology::id_of(const Coord& c) const {
  if (c.size() != dims_.size()) throw std::invalid_argument("id_of: bad dims");
  NodeId id = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    if (c[d] < 0 || c[d] >= dims_[d]) {
      throw std::out_of_range("id_of: coordinate out of range");
    }
    id += NodeId(c[d]) * strides_[d];
  }
  return id;
}

}  // namespace ddpm::topo
