// Switch model (paper §4.1: "one node consists of a switch and a computing
// node, but they are separate entities"; switches are trusted and run only
// the routing + marking fast path).
//
// Store-and-forward, output-queued: a packet arriving at a switch is
// routed, TTL-checked, marked, and appended to the chosen output queue;
// each output link serializes one packet at a time at the configured
// bandwidth and delivers it to the neighbor after the link latency.
//
// One event per hop. Serialization is FIFO at a fixed rate and the latency
// is constant, so a packet's whole schedule is known when it is enqueued:
// it starts once the link frees (`start = max(now, free_at)`), and lands
// `tx + latency` after that. Each output port keeps those stamps in one
// FIFO and a single pending arrival event for the FIFO's head; landing the
// head schedules the next one. The link's free time is a timestamp, not an
// event. The queue adaptive routing and the queue-full drop read is the
// FIFO's entries that have not started serializing yet (start > now).
//
// Per-hop processing order matches walk_packet (walk.hpp) and Figure 4:
// route -> decrement TTL -> mark with (current, next).
//
// A packet lives in one slot of the network-wide packet slab from inject()
// to delivery or drop; output FIFOs carry its 4-byte handle.
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

  /// Output-queue occupancy: packets waiting for the link, not counting
  /// the one serializing. The congestion signal adaptive routing reads.
  std::size_t queue_length(Port port) const noexcept {
    if (port < 0 || std::size_t(port) >= ports_.size()) return 0;
    return ports_[std::size_t(port)].waiting(env_->sim->now());
  }

  NodeId id() const noexcept { return id_; }

 private:
  /// One packet committed to a link: it serializes from `start` and
  /// reaches the neighbor at `arrive`.
  struct Transmission {
    netsim::SimTime start = 0;
    netsim::SimTime arrive = 0;
    PacketHandle handle = 0;
  };

  struct DDPM_HOT_STATE OutputPort {
    /// Every packet enqueued on this link that has not landed yet, in
    /// transmission order: waiting, serializing, then propagating. Both
    /// stamps rise along it. Reserved at construction to the most that can
    /// coexist, so steady state never touches the allocator.
    core::RingBuffer<Transmission> fifo;
    /// When the link finishes serializing the last enqueued packet.
    netsim::SimTime free_at = 0;
    /// Leading FIFO entries known to have started serializing; waiting()
    /// advances it lazily, land() pops from it.
    mutable std::size_t started = 0;

    /// Entries that have not started serializing at `now`.
    std::size_t waiting(netsim::SimTime now) const noexcept {
      while (started < fifo.size() && fifo.nth(started).start <= now) {
        ++started;
      }
      return fifo.size() - started;
    }
  };
  DDPM_HOT_LAYOUT(OutputPort, 56, 8);

  /// Schedules `port`'s one pending arrival event, for its FIFO head.
  void schedule_land(Port port, netsim::SimTime arrive);
  /// The head of `port`'s FIFO reaches the neighbor switch.
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
