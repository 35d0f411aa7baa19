// n-cube hypercube (paper §3): an n-dimensional mesh with k_i = 2 for all
// i. Nodes are adjacent iff their ids differ in exactly one bit. Degree and
// diameter are both n. Port d flips bit d.
//
// Coordinates are the binary digits of the node id (coordinate d = bit d),
// so the id<->coord mapping is trivial bit manipulation.
#pragma once

#include "topology/topology.hpp"

namespace ddpm::topo {

class Hypercube final : public Topology {
 public:
  /// An `n`-cube with 2^n nodes; 1 <= n <= 16 (Table 3's largest case).
  explicit Hypercube(int n);

  TopologyKind kind() const noexcept override { return TopologyKind::kHypercube; }
  NodeId num_nodes() const noexcept override { return NodeId(1) << n_; }
  std::size_t num_dims() const noexcept override { return std::size_t(n_); }
  int dim_size(std::size_t) const noexcept override { return 2; }
  int degree() const noexcept override { return n_; }
  int diameter() const noexcept override { return n_; }
  int num_ports() const noexcept override { return n_; }

  Coord coord_of(NodeId id) const override;
  NodeId id_of(const Coord& c) const override;

  std::optional<NodeId> neighbor(NodeId node, Port port) const override;
  std::optional<Port> port_to(NodeId from, NodeId to) const override;

  std::string spec() const override;

 private:
  int n_;
};

}  // namespace ddpm::topo
