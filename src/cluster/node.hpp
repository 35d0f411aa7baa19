// Compute-node model: injects benign traffic, executes attack roles
// (zombie flooder or worm scanner/victim of infection), and receives
// delivered packets.
//
// Benign injections form a Poisson process per node over the configured
// destination pattern. A zombie additionally runs the attack process from
// AttackConfig::start_time to stop_time. Worm infection follows the paper's
// second-generation description (§1): a scan hitting a clean node infects
// it after an incubation delay, after which it scans too — traffic grows
// with the infected population.
//
// Blocked sources park. A source rule (BlockingFilter::block_source_node)
// holds for the rest of the run, so a process whose injection the network
// refuses stops rescheduling: a blocked node costs no further events. Each
// process parks at its own first refusal; nothing resumes it.
#pragma once

#include <functional>
#include <optional>

#include "attack/attacker.hpp"
#include "attack/traffic.hpp"
#include "cluster/metrics.hpp"
#include "netsim/rng.hpp"
#include "netsim/simulator.hpp"
#include "packet/address_map.hpp"

namespace ddpm::cluster {

using topo::NodeId;

class ComputeNode {
 public:
  struct Env {
    netsim::Simulator* sim = nullptr;
    const topo::Topology* topo = nullptr;
    const pkt::AddressMap* addresses = nullptr;
    const attack::TrafficPattern* pattern = nullptr;
    Metrics* metrics = nullptr;
    /// The network's injection boundary for a packet from `at` to `dest`,
    /// asked before the packet is built: false if the source is blocked
    /// (counted there). The refused process builds nothing and parks.
    std::function<bool(NodeId at, NodeId dest)> admit;
    /// Hands an admitted packet to the local switch; returns false if
    /// ingress filtering drops it.
    std::function<bool(pkt::Packet&&, NodeId at)> inject;
    /// Notifies the network that this node consumed a packet.
    std::function<void(const pkt::Packet&, NodeId at)> delivered;
    /// Marks a sibling node infected (worm propagation).
    std::function<void(NodeId node, netsim::SimTime when)> infect_peer;

    double benign_rate = 0.0;  // packets per tick (0 disables)
    std::uint32_t benign_payload = 256;
    std::uint8_t initial_ttl = 64;
    bool record_traces = false;
    const attack::AttackConfig* attack = nullptr;  // may be null
  };

  ComputeNode(NodeId id, Env* env, netsim::Rng rng);

  /// Schedules this node's traffic processes. Call once before running.
  void start();

  /// Delivery from the local switch.
  void receive(pkt::Packet&& packet);

  /// Worm state transitions (driven by the network). Infecting a blocked
  /// node arms its scan process, which parks at its first refusal.
  bool infected() const noexcept { return infected_; }
  void infect();

  NodeId id() const noexcept { return id_; }
  std::uint64_t packets_received() const noexcept { return received_; }

 private:
  bool is_zombie() const;
  void schedule_benign();
  void schedule_attack();
  /// One injection attempt; false if the source is blocked, which parks
  /// the calling process.
  bool inject_benign();
  bool inject_attack();
  pkt::Packet make_packet(NodeId dest, pkt::IpProto proto,
                          pkt::TrafficClass traffic, std::uint32_t payload);

  NodeId id_;
  Env* env_;
  netsim::Rng rng_;
  bool infected_ = false;
  std::uint64_t received_ = 0;
  std::uint64_t next_flow_ = 0;
};

}  // namespace ddpm::cluster
