// Counters and statistics collected by a cluster simulation run.
#pragma once

#include <cstdint>
#include <string>

#include "netsim/quantile.hpp"
#include "netsim/stats.hpp"

namespace ddpm::cluster {

struct Metrics {
  // Injection side.
  std::uint64_t injected_benign = 0;
  std::uint64_t injected_attack = 0;
  /// Injections refused because the source node is blocked (mitigation).
  /// A node's benign and attack processes each park at their first
  /// refusal, since a source rule holds for the rest of the run: node
  /// traffic adds at most two per blocked node. Every refused
  /// ClusterNetwork::inject call counts.
  std::uint64_t blocked_at_source = 0;
  /// Injections dropped by ingress filtering: the header's source address
  /// did not match the injecting node (paper §2's RFC 2267, which IS
  /// complete inside a cluster — every switch knows its attached address).
  std::uint64_t dropped_spoofed_ingress = 0;

  // In-network losses.
  std::uint64_t dropped_queue_full = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_ttl = 0;

  // Delivery side.
  std::uint64_t delivered_benign = 0;
  std::uint64_t delivered_attack = 0;
  /// Deliveries suppressed by a victim-side filter rule.
  std::uint64_t filtered_at_victim = 0;

  netsim::RunningStat latency_benign;  // ticks, injection -> delivery
  netsim::RunningStat latency_attack;
  netsim::RunningStat hops;
  /// Streaming tail estimate of benign delivery latency (P^2 algorithm).
  netsim::P2Quantile latency_benign_p99{0.99};

  std::uint64_t injected() const noexcept {
    return injected_benign + injected_attack;
  }
  std::uint64_t delivered() const noexcept {
    return delivered_benign + delivered_attack;
  }
  std::uint64_t dropped() const noexcept {
    return dropped_queue_full + dropped_no_route + dropped_ttl;
  }

  std::string summary() const;
};

}  // namespace ddpm::cluster
