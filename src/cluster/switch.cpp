#include "cluster/switch.hpp"

#include <algorithm>
#include <cmath>

namespace ddpm::cluster {

std::vector<std::string> telemetry_port_labels(const topo::Topology& topo) {
  std::vector<std::string> labels;
  labels.reserve(std::size_t(topo.num_ports()));
  for (int p = 0; p < topo.num_ports(); ++p) {
    // Built with += (not operator+) to dodge a GCC 12 -O3 -Wrestrict
    // false positive in the const char* + string&& overload.
    std::string label;
    if (topo.kind() == topo::TopologyKind::kHypercube) {
      label += 'd';
      label += std::to_string(p);
    } else {
      const int dim = p / 2;
      label += (p % 2 == 0) ? '-' : '+';
      if (dim < 4) {
        label += "xyzw"[dim];
      } else {
        label += "dim";
        label += std::to_string(dim);
      }
    }
    labels.push_back(std::move(label));
  }
  return labels;
}

Switch::Switch(NodeId id, Env* env, netsim::Rng rng)
    : id_(id),
      env_(env),
      rng_(rng),
      ports_(std::size_t(env->topo->num_ports())) {
  // A port's FIFO holds up to queue_capacity waiting packets, the one
  // serializing, and those still propagating. Serializations start at
  // least min_tx apart, and all but the oldest of the propagating ones
  // started within the last `latency` ticks.
  const auto min_tx = netsim::SimTime(std::ceil(
      double(pkt::IpHeader::kWireSize) / env_->link_bandwidth));
  const netsim::SimTime tx_floor = std::max<netsim::SimTime>(min_tx, 1);
  const std::size_t on_wire = 2 + std::size_t(env_->link_latency / tx_floor);
  for (OutputPort& port : ports_) {
    port.fifo.reserve(env_->queue_capacity + on_wire);
  }
  // Labels are a function of the topology alone; the owning network builds
  // them once and shares them (hoisted out of this ctor, which used to
  // allocate the full label set per switch).
  if (env_->port_labels != nullptr) {
    probes_.bind(env_->registry, id_, *env_->port_labels);
  } else {
    probes_.bind(env_->registry, id_, telemetry_port_labels(*env_->topo));
  }
}

void Switch::inject(pkt::Packet&& packet) {
  if (env_->scheme != nullptr) env_->scheme->on_injection(packet, id_);
  handle(env_->packets->acquire(std::move(packet)), route::kLocalPort);
}

DDPM_HOT void Switch::handle(PacketHandle h, Port arrived_on) {
  pkt::Packet& packet = (*env_->packets)[h];
  if (packet.dest_node == id_) {
    packet.delivered_at = env_->sim->now();
    probes_.on_local_delivery();
    // Free the slot before the callback: a delivery hook that injects may
    // grow the slab, which would invalidate a reference into it.
    env_->deliver(env_->packets->take(h), id_);
    return;
  }
  const auto port = env_->router->select_output(id_, packet.dest_node,
                                                arrived_on, *env_->links, rng_);
  if (!port) {
    env_->packets->release(h);
    ++env_->metrics->dropped_no_route;
    probes_.on_drop_no_route(env_->tracer, id_);
    return;
  }
  if (packet.header.decrement_ttl() == 0) {
    env_->packets->release(h);
    ++env_->metrics->dropped_ttl;
    probes_.on_drop_ttl(env_->tracer, id_);
    return;
  }
  OutputPort& out = ports_[std::size_t(*port)];
  const netsim::SimTime now = env_->sim->now();
  const std::size_t queued = out.waiting(now);
  if (queued >= env_->queue_capacity) {
    env_->packets->release(h);
    ++env_->metrics->dropped_queue_full;
    probes_.on_drop_queue_full(env_->tracer, id_);
    return;
  }
  const NodeId next = env_->table->next_node(id_, *port);
  if (env_->scheme != nullptr) {
    env_->scheme->on_forward(packet, id_, next);
    probes_.on_mark_hook();
  }
  ++packet.hops;
  if (!packet.trace.empty()) packet.trace.push_back(next);
  // Depth seen by the packet, itself included (1 on an idle port).
  probes_.on_forward(queued + 1);

  const std::uint32_t wire_bytes = packet.wire_bytes();
  const auto tx_ticks = netsim::SimTime(
      // Floating-point divide (bandwidth scaling), not an integer one;
      // the textual frontend cannot type-check the operands.
      std::ceil(double(wire_bytes) / env_->link_bandwidth));  // ddpm-analyze: allow(hot-no-div)
  const netsim::SimTime start = std::max(now, out.free_at);
  out.free_at = start + tx_ticks;
  const netsim::SimTime arrive = out.free_at + env_->link_latency;
  // The span covers serialization + propagation; both are known now, so one
  // complete event suffices (no open/close pair). It may start in the
  // future: the tracer orders events by time when it flushes.
  probes_.on_tx(env_->tracer, id_, std::size_t(*port), wire_bytes, tx_ticks,
                start, arrive);
  const bool idle = out.fifo.empty();
  DDPM_DCHECK(out.fifo.size() < out.fifo.capacity(),
              "output FIFO outgrew its reserved bound");
  out.fifo.push_back({start, arrive, PacketHandle(h)});
  if (idle) schedule_land(*port, arrive);
}

DDPM_HOT void Switch::schedule_land(Port port, netsim::SimTime arrive) {
  auto land_head = [this, port]() { land(port); };
  // Byte-copyable capture: moving it costs no indirect call.
  static_assert(netsim::InlineAction::is_trivial<decltype(land_head)>);
  env_->sim->schedule_at(arrive, land_head);
}

DDPM_HOT void Switch::land(Port port) {
  OutputPort& out = ports_[std::size_t(port)];
  const PacketHandle h = out.fifo.front().handle;
  out.fifo.pop_front();
  if (out.started > 0) --out.started;
  if (!out.fifo.empty()) schedule_land(port, out.fifo.front().arrive);
  env_->switches[env_->table->next_node(id_, port)].handle(
      h, env_->table->reverse_port(id_, port));
}

}  // namespace ddpm::cluster
