// k-ary n-cube torus (paper §3): like the mesh but with wraparound
// channels, x_i = (y_i ± 1) mod k. Degree 2n, per-dimension diameter
// ⌊k_i / 2⌋.
//
// Radix 3 is the minimum: with k = 2 the "plus" and "minus" ports would
// reach the same neighbor (that degenerate case is the hypercube, which has
// its own class).
#pragma once

#include "topology/cartesian.hpp"

namespace ddpm::topo {

class Torus final : public CartesianTopology {
 public:
  /// `dims` = {k0, ..., kn-1}; every radix must be >= 3.
  explicit Torus(std::vector<int> dims);

  TopologyKind kind() const noexcept override { return TopologyKind::kTorus; }
  int diameter() const noexcept override { return diameter_; }

  std::optional<NodeId> neighbor(NodeId node, Port port) const override;
  std::optional<Port> port_to(NodeId from, NodeId to) const override;

  /// Signed ring distance from a to b in dimension d: the smallest-magnitude
  /// delta with b = (a + delta) mod k. Ties (k even, |delta| = k/2) resolve
  /// to the positive direction. Contract: d < num_dims() and a, b are valid
  /// coordinates in [0, k_d) (checked, fatal) — arbitrary ints would make
  /// the modular reduction overflow-prone.
  int ring_delta(int a, int b, std::size_t d) const noexcept;

  std::string spec() const override;

 private:
  int diameter_ = 0;
};

}  // namespace ddpm::topo
