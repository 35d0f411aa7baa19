// n-dimensional mesh (paper §3): nodes X and Y are adjacent iff their
// coordinates agree in all but one dimension i where x_i = y_i ± 1.
// Degree 2n, diameter Σ(k_i − 1).
#pragma once

#include "topology/cartesian.hpp"

namespace ddpm::topo {

class Mesh final : public CartesianTopology {
 public:
  /// `dims` = {k0, ..., kn-1}; every radix must be >= 2.
  explicit Mesh(std::vector<int> dims);

  TopologyKind kind() const noexcept override { return TopologyKind::kMesh; }
  int diameter() const noexcept override { return diameter_; }
  /// Exact maximum neighbor count: 2n when every radix >= 3 (the paper's
  /// formula), less when a dimension has no interior.
  int degree() const noexcept override { return degree_; }

  std::optional<NodeId> neighbor(NodeId node, Port port) const override;
  std::optional<Port> port_to(NodeId from, NodeId to) const override;

  std::string spec() const override;

 private:
  int diameter_ = 0;
  int degree_ = 0;
};

}  // namespace ddpm::topo
