// Abstract model of a regular direct network (paper §3).
//
// A Topology is pure geometry: it maps flat node ids to coordinates,
// enumerates neighbor links by port number, and reports degree/diameter.
// Dynamic state — link failures, congestion — lives elsewhere
// (LinkFailureSet here, queue occupancy in the cluster model) so the same
// geometry can be shared immutably by every component.
//
// Port numbering convention:
//   * mesh / torus: port 2*d   = negative direction in dimension d,
//                   port 2*d+1 = positive direction in dimension d.
//   * hypercube:    port d     = flip dimension (bit) d.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/check.hpp"
#include "topology/coord.hpp"

namespace ddpm::topo {

/// Flat node identifier; row-major over the coordinate space.
using NodeId = std::uint32_t;
/// Output port index on a switch; see the numbering convention above.
using Port = int;

inline constexpr NodeId kInvalidNode = 0xffffffffu;

enum class TopologyKind { kMesh, kTorus, kHypercube };

std::string to_string(TopologyKind kind);

class Topology;

/// Flat construction-time tables of a topology's links and coordinates:
/// neighbor, reverse port and torus-wraparound flag per (node, port) as
/// N*P arrays, and one coordinate per node. Every concrete Topology builds
/// its table once, in its constructor; hot readers (cluster switches,
/// routers, the DDPM marker, the wormhole engine) keep a reference and
/// read it through the non-virtual inline accessors below instead of
/// dispatching through the virtual interface per packet or flit.
///
/// Accessors take ids/ports the caller already validated: node <
/// num_nodes() and 0 <= port < num_ports() (debug-checked only).
class LinkTable {
 public:
  LinkTable() = default;
  /// The one builder: walks `topo`'s virtual neighbor/port_to/coord_of.
  explicit LinkTable(const Topology& topo);

  TopologyKind kind() const noexcept { return kind_; }
  NodeId num_nodes() const noexcept { return num_nodes_; }
  int num_ports() const noexcept { return ports_; }
  std::size_t num_dims() const noexcept { return radix_.size(); }
  /// Radix k_d of dimension d.
  int radix(std::size_t d) const noexcept {
    DDPM_DCHECK(d < radix_.size(), "LinkTable: dimension out of range");
    return radix_[d];
  }
  bool contains(NodeId node) const noexcept { return node < num_nodes_; }

  /// Neighbor reached through `port`, or kInvalidNode at a mesh boundary.
  NodeId next_node(NodeId node, Port port) const noexcept {
    return next_node_[slot(node, port)];
  }
  /// Port on next_node(node, port) that leads back to `node`; -1 where
  /// there is no link.
  Port reverse_port(NodeId node, Port port) const noexcept {
    return reverse_port_[slot(node, port)];
  }
  /// True iff the link is a torus wraparound (its coordinate step in the
  /// port's dimension is not +-1). Always false on meshes and hypercubes.
  bool wraps(NodeId node, Port port) const noexcept {
    return wraps_[slot(node, port)] != 0;
  }
  const Coord& coord(NodeId node) const noexcept {
    DDPM_DCHECK(node < num_nodes_, "LinkTable: node id out of range");
    return coords_[node];
  }
  /// Minimal hop distance between two nodes: the L1 coordinate distance,
  /// the shorter way round each torus ring, or the hypercube's Hamming
  /// distance.
  int minimal_hops(NodeId a, NodeId b) const noexcept;

 private:
  std::size_t slot(NodeId node, Port port) const noexcept {
    DDPM_DCHECK(node < num_nodes_ && port >= 0 && port < ports_,
                "LinkTable: (node, port) out of range");
    return std::size_t(node) * std::size_t(ports_) + std::size_t(port);
  }

  TopologyKind kind_ = TopologyKind::kMesh;
  NodeId num_nodes_ = 0;
  int ports_ = 0;
  std::vector<int> radix_;
  std::vector<NodeId> next_node_;         // N*P; kInvalidNode where no link
  std::vector<Port> reverse_port_;        // N*P; -1 where no link
  std::vector<std::uint8_t> wraps_;       // N*P; 1 = torus wraparound link
  std::vector<Coord> coords_;             // N
};

class Topology {
 public:
  virtual ~Topology() = default;

  virtual TopologyKind kind() const noexcept = 0;

  /// Total number of nodes (product of dimension sizes).
  virtual NodeId num_nodes() const noexcept = 0;

  /// Number of dimensions n.
  virtual std::size_t num_dims() const noexcept = 0;

  /// Radix k_d of dimension d.
  virtual int dim_size(std::size_t d) const noexcept = 0;

  /// Maximum number of links incident on any node (paper §3).
  virtual int degree() const noexcept = 0;

  /// Largest minimal hop distance between any node pair (paper §3).
  virtual int diameter() const noexcept = 0;

  /// Number of physical ports per switch (= degree for these topologies).
  virtual int num_ports() const noexcept = 0;

  virtual Coord coord_of(NodeId id) const = 0;
  virtual NodeId id_of(const Coord& c) const = 0;

  /// Neighbor reached through `port`, or nullopt if the port does not exist
  /// at this node (mesh boundary).
  virtual std::optional<NodeId> neighbor(NodeId node, Port port) const = 0;

  /// Port on `from` that reaches adjacent node `to`; nullopt if not adjacent.
  virtual std::optional<Port> port_to(NodeId from, NodeId to) const = 0;

  /// Minimal hop distance between two nodes (from the link table).
  /// Throws std::out_of_range for an id outside the topology.
  int min_hops(NodeId a, NodeId b) const;

  /// All existing neighbors of a node, in port order.
  std::vector<NodeId> neighbors(NodeId node) const;

  /// All undirected links as (low-id, high-id) pairs, each listed once.
  std::vector<std::pair<NodeId, NodeId>> links() const;

  /// Human-readable spec, e.g. "mesh:4x4", "torus:8x8x8", "hypercube:10".
  virtual std::string spec() const = 0;

  bool contains(NodeId id) const noexcept { return id < num_nodes(); }

  /// Flat link/coordinate table of this topology, built at construction.
  const LinkTable& link_table() const noexcept {
    DDPM_CHECK(table_.num_nodes() != 0,
               "Topology: link table not built (constructor must call "
               "build_link_table())");
    return table_;
  }

 protected:
  // C.67: suppress public copy through the base handle (slicing).
  Topology() = default;
  Topology(const Topology&) = default;
  Topology& operator=(const Topology&) = default;

  /// Builds link_table(). Every concrete topology calls this as the last
  /// step of its constructor, where the virtual interface already resolves
  /// to the final overriders.
  void build_link_table() { table_ = LinkTable(*this); }

 private:
  LinkTable table_;
};

/// Mutable set of failed (bidirectional) links, used to reproduce the
/// Figure 2 fault scenarios and for fault-injection testing. A failed link
/// blocks traffic in both directions.
class LinkFailureSet {
 public:
  void fail(NodeId a, NodeId b) { failed_.insert(key(a, b)); }
  void restore(NodeId a, NodeId b) { failed_.erase(key(a, b)); }
  bool is_failed(NodeId a, NodeId b) const { return failed_.count(key(a, b)) != 0; }
  void clear() { failed_.clear(); }
  std::size_t size() const noexcept { return failed_.size(); }
  bool empty() const noexcept { return failed_.empty(); }

 private:
  static std::uint64_t key(NodeId a, NodeId b) noexcept {
    if (a > b) std::swap(a, b);
    return (std::uint64_t(a) << 32) | b;
  }
  std::unordered_set<std::uint64_t> failed_;
};

}  // namespace ddpm::topo
