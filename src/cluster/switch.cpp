#include "cluster/switch.hpp"

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
  for (OutputPort& port : ports_) {
    port.queue.reserve(env_->queue_capacity);
    port.in_flight.reserve(env_->queue_capacity);
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
  if (out.queue.size() >= env_->queue_capacity) {
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
  out.queue.push_back(PacketHandle(h));
  probes_.on_forward(out.queue.size());
  start_transmission(*port);
}

DDPM_HOT void Switch::start_transmission(Port port) {
  OutputPort& out = ports_[std::size_t(port)];
  if (out.busy || out.queue.empty()) return;
  out.busy = true;
  const PacketHandle h = out.queue.front();
  out.queue.pop_front();
  const std::uint32_t wire_bytes = (*env_->packets)[h].wire_bytes();
  const auto tx_ticks = netsim::SimTime(
      // Floating-point divide (bandwidth scaling), not an integer one;
      // the textual frontend cannot type-check the operands.
      std::ceil(double(wire_bytes) / env_->link_bandwidth));  // ddpm-analyze: allow(hot-no-div)
  // The span covers serialization + propagation; both durations are known
  // at schedule time, so one complete event suffices (no open/close pair).
  probes_.on_tx(env_->tracer, id_, std::size_t(port), wire_bytes, tx_ticks,
                env_->sim->now(),
                env_->sim->now() + tx_ticks + env_->link_latency);
  // Link frees up after serialization; the packet lands after propagation.
  auto link_free = [this, port]() {
    ports_[std::size_t(port)].busy = false;
    start_transmission(port);
  };
  auto arrive = [this, port]() { land(port); };
  // Both captures are byte-copyable: moving them costs no indirect call.
  static_assert(netsim::InlineAction::is_trivial<decltype(link_free)> &&
                netsim::InlineAction::is_trivial<decltype(arrive)>);
  env_->sim->schedule_in(tx_ticks, link_free);
  out.in_flight.push_back(PacketHandle(h));
  env_->sim->schedule_in(tx_ticks + env_->link_latency, arrive);
}

DDPM_HOT void Switch::land(Port port) {
  OutputPort& out = ports_[std::size_t(port)];
  const PacketHandle h = out.in_flight.front();
  out.in_flight.pop_front();
  env_->switches[env_->table->next_node(id_, port)].handle(
      h, env_->table->reverse_port(id_, port));
}

}  // namespace ddpm::cluster
