// Switch model (paper §4.1: "one node consists of a switch and a computing
// node, but they are separate entities"; switches are trusted and run only
// the routing + marking fast path).
//
// Store-and-forward, output-queued: a packet arriving at a switch is
// routed, TTL-checked, marked, and appended to the chosen output queue;
// each output link serializes one packet at a time at the configured
// bandwidth and delivers it to the neighbor after the link latency.
//
// Per-hop processing order matches walk_packet (walk.hpp) and Figure 4:
// route -> decrement TTL -> mark with (current, next).
//
// A packet lives in one slot of the network-wide packet slab from inject()
// to delivery or drop; output queues and links carry its 4-byte handle.
// Neighbor, reverse-port and coordinate lookups read the topology's flat
// LinkTable rather than its virtual interface.
#pragma once

#include <functional>
#include <vector>

#include "cluster/metrics.hpp"
#include "core/hot_path.hpp"
#include "core/ring.hpp"
#include "core/slab.hpp"
#include "marking/scheme.hpp"
#include "netsim/rng.hpp"
#include "netsim/simulator.hpp"
#include "routing/router.hpp"
#include "telemetry/probes.hpp"

namespace ddpm::cluster {

using topo::NodeId;
using topo::Port;

using PacketSlab = core::Slab<pkt::Packet>;
using PacketHandle = PacketSlab::Handle;

class Switch {
 public:
  /// Services the owning network provides. All pointers outlive the switch.
  struct Env {
    netsim::Simulator* sim = nullptr;
    const topo::Topology* topo = nullptr;
    /// topo->link_table(), cached so the hot path never touches the
    /// virtual Topology interface.
    const topo::LinkTable* table = nullptr;
    /// Every in-network packet; shared by all switches of one network.
    PacketSlab* packets = nullptr;
    /// All switches of the network, indexed by NodeId: a landing packet is
    /// handed straight to the neighbor. Nullable for a standalone switch
    /// that never transmits.
    Switch* switches = nullptr;
    const route::Router* router = nullptr;
    mark::MarkingScheme* scheme = nullptr;  // nullable: unmarked network
    const route::LinkStateView* links = nullptr;
    Metrics* metrics = nullptr;
    /// Per-switch/per-port registry series; nullable (no registration).
    telemetry::Registry* registry = nullptr;
    /// Event tracer for drop instants and link-transmission spans. Owned by
    /// the driver; the network rebinds it on all switches via set_tracer().
    telemetry::Tracer* tracer = nullptr;
    /// Telemetry port labels, built once by the owning network and shared
    /// by every switch (they are identical across a topology). Nullable:
    /// a standalone switch builds its own.
    const std::vector<std::string>* port_labels = nullptr;
    /// Hands a packet to the local compute node. Its slab slot is already
    /// released, so the callee may inject.
    std::function<void(pkt::Packet&&, NodeId at)> deliver;

    double link_bandwidth = 1.0;        // bytes per tick
    netsim::SimTime link_latency = 50;  // ticks of propagation per hop
    std::size_t queue_capacity = 16;    // packets per output queue
  };

  Switch(NodeId id, Env* env, netsim::Rng rng);

  /// Packet enters from the attached compute node; runs the scheme's
  /// injection hook (Figure 4's V := 0), parks the packet in the slab and
  /// handles it.
  void inject(pkt::Packet&& packet);

  /// The slab packet `h` enters through `arrived_on` (this switch's port
  /// toward the sender, or route::kLocalPort): deliver, drop or enqueue.
  void handle(PacketHandle h, Port arrived_on);

  /// Output-queue occupancy, the congestion signal adaptive routing reads.
  std::size_t queue_length(Port port) const noexcept {
    if (port < 0 || std::size_t(port) >= ports_.size()) return 0;
    return ports_[std::size_t(port)].queue.size();
  }

  NodeId id() const noexcept { return id_; }

 private:
  struct DDPM_HOT_STATE OutputPort {
    /// Bounded by Env::queue_capacity and reserved to it at construction,
    /// so steady-state enqueue/dequeue never touches the allocator.
    core::RingBuffer<PacketHandle> queue;
    /// Serialized onto the link, still propagating. Arrival events complete
    /// strictly in transmission order (serialization is sequential and the
    /// latency constant), so a FIFO here lets the arrival event capture
    /// just [this, port] — the capture stays inside InlineAction's inline
    /// buffer.
    core::RingBuffer<PacketHandle> in_flight;
    bool busy = false;
  };
  DDPM_HOT_LAYOUT(OutputPort, 88, 8);

  void start_transmission(Port port);
  /// The packet at the head of `port`'s in-flight FIFO reaches the
  /// neighbor switch.
  void land(Port port);

  NodeId id_;
  Env* env_;
  netsim::Rng rng_;
  std::vector<OutputPort> ports_;
  telemetry::SwitchProbes probes_;
};

/// Human-readable per-port labels for telemetry: "-x"/"+x"/... on mesh and
/// torus (port 2d is the negative direction in dimension d), "d0"/"d1"/...
/// on the hypercube.
std::vector<std::string> telemetry_port_labels(const topo::Topology& topo);

}  // namespace ddpm::cluster
