// Blocking filters — the mitigation step (paper §2: "Once a source or a
// path is identified, we can protect our system by blocking packets from
// that source or that path").
//
// Three rule kinds, one per identification scheme:
//   * by true source node — installable at the offender's own switch once
//     DDPM names it, cutting the attack at its origin;
//   * by DPM signature — the victim drops everything whose Marking Field
//     matches a known-bad signature ("without additional computing
//     complexity", §2), at the cost of collateral damage on colliding
//     signatures;
//   * by claimed source address — the naive filter spoofing defeats,
//     included as the baseline.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "packet/packet.hpp"
#include "topology/topology.hpp"

namespace ddpm::detect {

class BlockingFilter {
 public:
  /// `num_nodes` sizes the source-node rules: one bit per node of the
  /// topology, so the per-injection check is a word load.
  explicit BlockingFilter(std::size_t num_nodes)
      : num_nodes_(num_nodes), node_bits_((num_nodes + 63) / 64, 0) {}

  /// Block packets injected at this node (requires source-switch
  /// enforcement; DDPM makes the node identifiable). Throws
  /// std::invalid_argument if `node` is not a node of the topology.
  void block_source_node(topo::NodeId node) {
    if (node >= num_nodes_) {
      throw std::invalid_argument(
          "BlockingFilter::block_source_node: node " + std::to_string(node) +
          " outside a " + std::to_string(num_nodes_) + "-node topology");
    }
    const std::uint64_t bit = std::uint64_t{1} << (node & 63);
    std::uint64_t& word = node_bits_[node >> 6];
    node_rules_ += (word & bit) == 0;
    word |= bit;
  }

  /// Block packets whose final Marking Field equals this DPM signature
  /// (victim-side enforcement).
  void block_signature(std::uint16_t signature) { signatures_.insert(signature); }

  /// Block packets claiming this source address (victim-side; defeated by
  /// spoofing).
  void block_address(pkt::Ipv4Address address) { addresses_.insert(address); }

  /// Source-switch check: is traffic injected by `injector` blocked?
  /// An id outside the topology is never blocked.
  bool blocks_injection(topo::NodeId injector) const {
    return injector < num_nodes_ &&
           ((node_bits_[injector >> 6] >> (injector & 63)) & 1) != 0;
  }

  /// Victim-side check on a delivered packet.
  bool blocks_delivery(const pkt::Packet& packet) const {
    return signatures_.count(packet.marking_field()) != 0 ||
           addresses_.count(packet.header.source()) != 0;
  }

  void clear() {
    std::fill(node_bits_.begin(), node_bits_.end(), 0);
    node_rules_ = 0;
    signatures_.clear();
    addresses_.clear();
  }

  std::size_t rule_count() const noexcept {
    return node_rules_ + signatures_.size() + addresses_.size();
  }

 private:
  std::size_t num_nodes_;
  std::vector<std::uint64_t> node_bits_;  // bit n: node n blocked
  std::size_t node_rules_ = 0;            // set bits in node_bits_
  std::unordered_set<std::uint16_t> signatures_;
  std::unordered_set<pkt::Ipv4Address> addresses_;
};

}  // namespace ddpm::detect
