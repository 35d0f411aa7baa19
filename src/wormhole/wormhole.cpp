#include "wormhole/wormhole.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/check.hpp"
#include "routing/deadlock.hpp"

namespace ddpm::wormhole {

WormholeNetwork::WormholeNetwork(const topo::Topology& topo,
                                 const route::Router& router,
                                 mark::MarkingScheme* scheme,
                                 WormholeConfig config)
    : topo_(topo),
      router_(router),
      escape_router_(topo),
      scheme_(scheme),
      config_(config),
      escape_vcs_(config.disable_escape
                      ? 0
                      : (topo.kind() == topo::TopologyKind::kTorus ? 2 : 1)),
      rng_(config.seed),
      table_(topo.link_table()) {
  // Factory deadlock gate (routing/deadlock.hpp): a blocking substrate
  // must carry the escape VCs the routing declaration demands. The
  // `disable_escape` negative control opts out explicitly — it exists to
  // demonstrate the deadlock the gate otherwise forbids.
  if (!config.disable_escape) {
    route::require_deadlock_safe(router, escape_vcs_ > 0);
  }
  num_nodes_ = int(topo.num_nodes());
  num_ports_ = topo.num_ports();
  const int V = total_vcs();
  DDPM_CHECK(config_.buffer_flits > 0 && config_.buffer_flits <= 0x7fff,
             "buffer_flits out of range for credit counters");
  // At most one flit per output port per node lands per cycle.
  staged_.reserve(std::size_t(num_nodes_) * std::size_t(num_ports_));
  unit_port_.resize(std::size_t(num_ports_ + 1) * std::size_t(V));
  unit_vc_.resize(std::size_t(num_ports_ + 1) * std::size_t(V));
  for (int unit = 0; unit < (num_ports_ + 1) * V; ++unit) {
    unit_port_[std::size_t(unit)] = unit / V;
    unit_vc_[std::size_t(unit)] = unit % V;
  }
  build_route_tables();
  if (config_.use_soa_engine && (num_ports_ + 1) * V <= 64) {
    build_soa();
  } else {
    nodes_.resize(std::size_t(num_nodes_));
    for (NodeState& node : nodes_) {
      node.in.resize(std::size_t(num_ports_ + 1) * std::size_t(V));
      node.out.resize(std::size_t(num_ports_) * std::size_t(V));
      for (OutputVc& out : node.out) out.credits = config_.buffer_flits;
      node.rr.assign(std::size_t(num_ports_), 0);
      // Switch-port buffers are credit-bounded at buffer_flits: reserving
      // that depth up front makes steady-state push/pop allocation-free
      // (tests/test_wormhole_steady_alloc.cpp proves it at runtime, the
      // hot-no-alloc rule statically). The injection units (ports >= P*V)
      // stay unreserved — they are unbounded and grow only in inject(),
      // which is off the hot path.
      for (std::size_t unit = 0;
           unit < std::size_t(num_ports_) * std::size_t(V); ++unit) {
        node.in[unit].buffer.reserve(std::size_t(config_.buffer_flits));
      }
    }
    node_flits_.assign(std::size_t(num_nodes_), 0);
  }
}

void WormholeNetwork::build_soa() {
  const int V = total_vcs();
  soa_units_ = (num_ports_ + 1) * V;
  soa_switch_units_ = num_ports_ * V;
  const std::size_t N = std::size_t(num_nodes_);
  const std::size_t U = std::size_t(soa_units_);
  // The slab preallocates every switch unit at full credit depth — the
  // same total footprint the per-unit RingBuffer reservations had, but
  // contiguous, so steady-state push/pop touches no queue metadata beyond
  // the unit's own control record.
  fbuf_.assign(N * std::size_t(soa_switch_units_) *
                   std::size_t(config_.buffer_flits),
               Flit{});
  inj_buf_.clear();
  inj_buf_.resize(N * std::size_t(V));
  soa_in_.assign(N * U, UnitCtl{});
  soa_out_.assign(N * std::size_t(num_ports_) * std::size_t(V), OutCtl{});
  for (OutCtl& out : soa_out_) out.credits = std::int16_t(config_.buffer_flits);
  soa_rr_.assign(N * std::size_t(num_ports_), 0);
  occ_.assign(N, 0);
  req_.assign(N * std::size_t(num_ports_), 0);
  node_mask_.assign((N + 63) / 64, 0);
  group_mask_.assign((node_mask_.size() + 63) / 64, 0);
  soa_staged_.reserve(N * std::size_t(num_ports_));
  // Static link-derived tables: the hot loop's per-pop credit target and
  // per-forward landing target collapse to one table load each.
  credit_slot_.assign(N * U, -1);
  link_dst_.assign(N * std::size_t(num_ports_), LinkDst{});
  for (NodeId n = 0; n < NodeId(N); ++n) {
    for (Port p = 0; p < num_ports_; ++p) {
      const NodeId up = table_.next_node(n, p);
      if (up == topo::kInvalidNode) continue;
      const Port up_port = table_.reverse_port(n, p);
      for (int vc = 0; vc < V; ++vc) {
        credit_slot_[std::size_t(n) * U + std::size_t(p * V + vc)] =
            std::int32_t(soa_out_index(up, up_port, vc));
      }
      link_dst_[std::size_t(n) * std::size_t(num_ports_) + std::size_t(p)] =
          LinkDst{up, std::uint16_t(up_port * V)};
    }
  }
}

void WormholeNetwork::build_route_tables() {
  const std::size_t N = std::size_t(num_nodes_);

  // Per-(node, dest) tables are O(N^2); honor the budget.
  if (!config_.use_route_tables || N > config_.route_table_max_nodes) return;

  // Escape next hop: dimension-order routing is deterministic and ignores
  // the arrival port, so a single port per (node, dest) captures it.
  escape_port_.assign(N * N, Port(-1));
  for (NodeId n = 0; n < NodeId(N); ++n) {
    for (NodeId d = 0; d < NodeId(N); ++d) {
      const auto cands = escape_router_.candidates(n, d, route::kLocalPort);
      if (!cands.empty()) {
        escape_port_[std::size_t(n) * N + std::size_t(d)] = cands.front();
      }
    }
  }

  // Adaptive candidate bitmasks: only for routers that declare their
  // candidate set arrival-invariant, and only if the declared order is
  // verifiably ascending — mask iteration then replays the virtual
  // candidate order bit for bit (test_wormhole RouteTableByteIdentity).
  if (!router_.has_static_candidates() || num_ports_ > 32) return;
  std::vector<std::uint32_t> masks(N * N, 0);
  for (NodeId n = 0; n < NodeId(N); ++n) {
    for (NodeId d = 0; d < NodeId(N); ++d) {
      const auto cands = router_.candidates(n, d, route::kLocalPort);
      Port prev = -1;
      for (Port p : cands) {
        if (p <= prev || p < 0 || p >= num_ports_) return;  // not ascending
        prev = p;
        masks[std::size_t(n) * N + std::size_t(d)] |= (1u << unsigned(p));
      }
    }
  }
  cand_mask_ = std::move(masks);
}

void WormholeNetwork::inject(pkt::Packet&& packet, NodeId src) {
  if (scheme_ != nullptr) scheme_->on_injection(packet, src);
  packet.header.set_ttl(config_.initial_ttl);
  const std::uint32_t flits = std::max<std::uint32_t>(
      1, (packet.wire_bytes() + config_.flit_bytes - 1) / config_.flit_bytes);
  const std::uint32_t id = packets_.acquire(std::move(packet));
  if (soa_units_ != 0) {
    const int unit = soa_switch_units_;  // injection port, VC 0
    core::RingBuffer<Flit>& buf = inj_queue(src, unit);
    for (std::uint32_t i = 0; i < flits; ++i) {
      Flit flit;
      flit.head = (i == 0);
      flit.tail = (i + 1 == flits);
      flit.pkt = id;
      buf.push_back(std::move(flit));
    }
    soa_note_push(src, unit);
  } else {
    InputVc& vc = input_vc(src, injection_port(), 0);
    for (std::uint32_t i = 0; i < flits; ++i) {
      Flit flit;
      flit.head = (i == 0);
      flit.tail = (i + 1 == flits);
      flit.pkt = id;
      vc.buffer.push_back(std::move(flit));
    }
    node_flits_[src] += flits;
  }
  flits_in_flight_ += flits;
}

ProtocolSnapshot WormholeNetwork::snapshot_protocol() const {
  ProtocolSnapshot snap;
  const int V = total_vcs();
  snap.nodes = num_nodes_;
  snap.ports = num_ports_;
  snap.vcs = V;
  snap.depth = config_.buffer_flits;
  snap.flits_in_flight = flits_in_flight_;
  snap.delivered = delivered_;
  const std::size_t in_units = std::size_t(num_ports_ + 1) * std::size_t(V);
  const std::size_t out_units = std::size_t(num_ports_) * std::size_t(V);
  snap.occupancy.assign(std::size_t(num_nodes_) * in_units, 0);
  snap.credits.assign(std::size_t(num_nodes_) * out_units, 0);
  snap.allocated.assign(std::size_t(num_nodes_) * out_units, 0);
  for (NodeId n = 0; n < NodeId(num_nodes_); ++n) {
    for (std::size_t u = 0; u < in_units; ++u) {
      const std::size_t g = std::size_t(n) * in_units + u;
      if (soa_units_ != 0) {
        snap.occupancy[g] =
            int(u) < soa_switch_units_
                ? soa_in_[std::size_t(n) * std::size_t(soa_units_) + u].qcount
                : std::uint32_t(
                      inj_buf_[std::size_t(n) * std::size_t(V) +
                               (u - std::size_t(soa_switch_units_))]
                          .size());
      } else {
        snap.occupancy[g] = std::uint32_t(nodes_[n].in[u].buffer.size());
      }
    }
    for (std::size_t u = 0; u < out_units; ++u) {
      const std::size_t g = std::size_t(n) * out_units + u;
      if (soa_units_ != 0) {
        snap.credits[g] = soa_out_[g].credits;
        snap.allocated[g] = soa_out_[g].allocated;
      } else {
        snap.credits[g] = nodes_[n].out[u].credits;
        snap.allocated[g] = nodes_[n].out[u].allocated ? 1 : 0;
      }
    }
  }
  return snap;
}

bool WormholeNetwork::check_protocol_invariants(std::string* why) const {
  const ProtocolSnapshot snap = snapshot_protocol();
  const int V = snap.vcs;
  const std::size_t in_units = std::size_t(num_ports_ + 1) * std::size_t(V);
  const std::size_t out_units = std::size_t(num_ports_) * std::size_t(V);
  const auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  // Flit accounting: every in-flight flit is buffered somewhere (between
  // cycles the staging vectors are empty), and nothing is double-counted.
  std::uint64_t buffered = 0;
  for (const std::uint32_t occ : snap.occupancy) buffered += occ;
  if (buffered != snap.flits_in_flight) {
    std::ostringstream os;
    os << "flit accounting: " << buffered << " buffered vs "
       << snap.flits_in_flight << " in flight (loss or duplication)";
    return fail(os.str());
  }
  for (NodeId n = 0; n < NodeId(snap.nodes); ++n) {
    // No overflow: switch units are bounded by the credit depth (injection
    // units, port P, are unbounded by design).
    for (Port p = 0; p < num_ports_; ++p) {
      for (int vc = 0; vc < V; ++vc) {
        const std::uint32_t occ =
            snap.occupancy[std::size_t(n) * in_units +
                           std::size_t(p) * std::size_t(V) + std::size_t(vc)];
        if (occ > std::uint32_t(snap.depth)) {
          std::ostringstream os;
          os << "buffer overflow: node " << n << " port " << p << " vc " << vc
             << " holds " << occ << " flits (depth " << snap.depth << ")";
          return fail(os.str());
        }
        // Credit conservation per link/VC: the upstream neighbor's credit
        // counter for the output VC feeding this buffer, plus the flits
        // sitting in the buffer, must equal the depth.
        const NodeId up = table_.next_node(n, p);
        if (up == topo::kInvalidNode) continue;
        const Port up_port = table_.reverse_port(n, p);
        const std::int32_t credits =
            snap.credits[std::size_t(up) * out_units +
                         std::size_t(up_port) * std::size_t(V) +
                         std::size_t(vc)];
        if (credits < 0 || std::uint32_t(credits) + occ !=
                               std::uint32_t(snap.depth)) {
          std::ostringstream os;
          os << "credit conservation: link " << up << "->" << n << " vc "
             << vc << " has " << credits << " credits + " << occ
             << " buffered != depth " << snap.depth;
          return fail(os.str());
        }
      }
    }
  }
  return true;
}

std::uint64_t WormholeNetwork::injection_backlog() const {
  std::uint64_t total = 0;
  const int V = total_vcs();
  if (soa_units_ != 0) {
    for (const core::RingBuffer<Flit>& q : inj_buf_) total += q.size();
    return total;
  }
  for (const NodeState& node : nodes_) {
    for (int vc = 0; vc < V; ++vc) {
      total += node.in[std::size_t(num_ports_) * std::size_t(V) +
                       std::size_t(vc)]
                   .buffer.size();
    }
  }
  return total;
}

// --------------------------------------------------------------------------
// Reference engine (object graph). Kept verbatim as the semantic oracle:
// the SoA engine below must reproduce its delivery evidence and telemetry
// byte for byte (tests/test_wormhole.cpp pins it).
// --------------------------------------------------------------------------

DDPM_HOT void WormholeNetwork::return_credit(NodeId node, int in_port,
                                             int vc) {
  if (DDPM_MODEL_MUTATION(kDropCreditReturn)) return;  // seeded bug
  if (in_port == injection_port()) return;  // injection queue is unbounded
  const NodeId upstream = table_.next_node(node, in_port);
  const Port up_port = table_.reverse_port(node, in_port);
  OutputVc& out = output_vc(upstream, up_port, vc);
  if (out.credits < config_.buffer_flits) ++out.credits;
}

DDPM_HOT bool WormholeNetwork::allocate(NodeId node, int in_port,
                                        InputVc& vc) {
  const Flit& head = vc.buffer.front();
  pkt::Packet& packet = packets_[head.pkt];
  const Port arrived_on =
      in_port == injection_port() ? route::kLocalPort : Port(in_port);

  // Hop budget: a packet whose TTL expires is consumed silently (the
  // discard path in switch_allocation). With minimal adaptive candidates
  // this cannot trigger; it is the safety net the walker and the
  // store-and-forward switch also have.
  if (packet.header.ttl() == 0) {
    vc.active = true;
    vc.out_port = -2;  // discard sink
    vc.out_vc = -1;
    return true;
  }

  // 1. Adaptive VCs on any productive port: pick the (port, vc) with the
  //    most downstream credits (congestion-aware), first-wins on ties.
  //    Fast path: replay the precomputed candidate mask in ascending port
  //    order (verified identical to the router's order at construction).
  Port best_port = -1;
  int best_vc = -1;
  int best_credits = 0;
  if (!cand_mask_.empty()) {
    std::uint32_t mask = cand_mask_[std::size_t(node) * std::size_t(num_nodes_) +
                                    std::size_t(packet.dest_node)];
    while (mask != 0) {
      const Port p = Port(__builtin_ctz(mask));
      mask &= mask - 1;
      for (int v = escape_vcs_; v < total_vcs(); ++v) {
        const OutputVc& out = output_vc(node, p, v);
        if (!out.allocated && out.credits > best_credits) {
          best_credits = out.credits;
          best_port = p;
          best_vc = v;
        }
      }
    }
  } else {
    // Cold fallback (tables disabled or over budget): the per-flit virtual
    // dispatch and candidate-vector allocation this branch performs are
    // exactly what the tables remove.
    const auto candidates = router_.candidates(  // ddpm-analyze: allow(hot-no-virtual)
        node, packet.dest_node, arrived_on);
    for (Port p : candidates) {
      for (int v = escape_vcs_; v < total_vcs(); ++v) {
        const OutputVc& out = output_vc(node, p, v);
        if (!out.allocated && out.credits > best_credits) {
          best_credits = out.credits;
          best_port = p;
          best_vc = v;
        }
      }
    }
  }

  // 2. Escape layer: dimension-order port, dateline-disciplined VC class.
  std::uint8_t next_class = head.escape_class;
  if (best_port < 0 &&
      (config_.disable_escape || DDPM_MODEL_MUTATION(kSkipEscapeFallback))) {
    probes_.on_alloc_stall();
    return false;  // no escape lanes: wait (possibly forever — deadlock)
  }
  if (best_port < 0) {
    Port p = -1;
    if (!escape_port_.empty()) {
      p = escape_port_[std::size_t(node) * std::size_t(num_nodes_) +
                       std::size_t(packet.dest_node)];
      if (p < 0) return false;  // only possible if already at dest
    } else {
      // escape_router_ is a concrete member (no virtual dispatch here);
      // the vector it returns is the cost the escape_port_ table removes.
      const auto escape =
          escape_router_.candidates(node, packet.dest_node, arrived_on);
      if (escape.empty()) return false;  // only possible if already at dest
      p = escape.front();
    }
    if (escape_vcs_ > 1) {
      // Torus dateline: entering a new dimension resets the class; taking
      // the wraparound link (the link table's wrap flag) promotes it.
      const std::size_t dim = std::size_t(p / 2);
      bool same_dim_as_arrival = false;
      if (arrived_on != route::kLocalPort) {
        same_dim_as_arrival = (std::size_t(arrived_on / 2) == dim);
      }
      if (!same_dim_as_arrival) next_class = 0;
      if (table_.wraps(node, p)) {
        next_class = 1;  // wrap crossing
      }
    }
    const int v = int(next_class);
    const OutputVc& out = output_vc(node, p, v);
    if (out.allocated || out.credits == 0) {
      (out.allocated ? probes_.on_alloc_stall() : probes_.on_credit_stall());
      return false;  // wait
    }
    best_port = p;
    best_vc = v;
  }

  // Claim the output VC; run TTL + marking once per switch, exactly at the
  // post-routing point Figure 4 prescribes.
  output_vc(node, best_port, best_vc).allocated = true;
  probes_.on_vc_alloc();
  vc.active = true;
  vc.out_port = best_port;
  vc.out_vc = best_vc;
  const NodeId next = table_.next_node(node, best_port);
  packet.header.decrement_ttl();
  // Scheme polymorphism is the experiment's independent variable — the
  // one virtual call the hot path keeps, by design.
  if (scheme_ != nullptr) scheme_->on_forward(packet, node, next);  // ddpm-analyze: allow(hot-no-virtual)
  ++packet.hops;
  // Path tracing is opt-in (trace seeded non-empty) and bounded by TTL.
  if (!packet.trace.empty()) packet.trace.push_back(next);  // ddpm-analyze: allow(hot-no-alloc)
  // Record the downstream escape class on the (future) head flit.
  vc.buffer.front().escape_class = next_class;
  return true;
}

DDPM_HOT void WormholeNetwork::eject(NodeId node, InputVc& vc) {
  // Consume every buffered flit of the packet being ejected this cycle
  // (infinite ejection bandwidth, a standard simulator simplification).
  while (!vc.buffer.empty()) {
    Flit flit = std::move(vc.buffer.front());
    vc.buffer.pop_front();
    --flits_in_flight_;
    --node_flits_[node];
    ++progress_marker_;
    const bool tail = flit.tail;
    if (tail) {
      vc.active = false;
      // The tail is the packet's last use: its slab slot is released here.
      if (vc.out_port == -2) {
        ++dropped_ttl_;
        packets_.release(flit.pkt);
      } else {
        packets_[flit.pkt].delivered_at = cycle_;
        ++delivered_;
        probes_.on_delivered();
        // Take the packet out before the hook: a hook that injects may grow
        // the slab, which would invalidate a reference into it.
        if (hook_) {
          hook_(packets_.take(flit.pkt), node);
        } else {
          packets_.release(flit.pkt);
        }
      }
      vc.out_port = -1;
      return;
    }
  }
}

DDPM_HOT void WormholeNetwork::switch_allocation(NodeId node) {
  NodeState& state = nodes_[node];
  const int V = total_vcs();
  const int in_units = (num_ports_ + 1) * V;

  // VC allocation + ejection/discard for heads at buffer fronts.
  for (int unit = 0; unit < in_units; ++unit) {
    InputVc& vc = state.in[std::size_t(unit)];
    if (vc.buffer.empty()) continue;
    const int in_port = int(unit_port_[std::size_t(unit)]);
    const int in_vc = int(unit_vc_[std::size_t(unit)]);
    if (!vc.active) {
      const Flit& front = vc.buffer.front();
      if (!front.head) continue;  // body flits of an ejected/advancing head
      if (packets_[front.pkt].dest_node == node) {
        // Local delivery path: consume and credit.
        const std::size_t consumed = vc.buffer.size();
        vc.out_port = -1;
        vc.active = true;  // occupy until tail passes
        eject(node, vc);
        for (std::size_t i = 0; i < consumed - vc.buffer.size(); ++i) {
          return_credit(node, in_port, in_vc);
        }
        continue;
      }
      if (!allocate(node, in_port, vc)) continue;
    }
    if (vc.active && (vc.out_port == -1 || vc.out_port == -2)) {
      // Ejection or discard in progress: keep consuming arrivals.
      const std::size_t before = vc.buffer.size();
      eject(node, vc);
      for (std::size_t i = 0; i < before - vc.buffer.size(); ++i) {
        return_credit(node, in_port, in_vc);
      }
    }
  }

  // Switch traversal: each output port forwards at most one flit.
  for (Port out_port = 0; out_port < num_ports_; ++out_port) {
    std::size_t& rr = state.rr[std::size_t(out_port)];
    std::size_t unit = rr;  // wraps by conditional subtract, never %
    for (int probe = 0; probe < in_units;
         ++probe, unit = (unit + 1 == std::size_t(in_units)) ? 0 : unit + 1) {
      InputVc& vc = state.in[unit];
      if (!vc.active || vc.out_port != out_port || vc.buffer.empty()) continue;
      OutputVc& out = output_vc(node, out_port, vc.out_vc);
      if (out.credits == 0 && !DDPM_MODEL_MUTATION(kBufferOffByOne)) {
        probes_.on_credit_stall();
        continue;
      }
      probes_.on_flit_forward();
      probes_.on_buffer_sample(vc.buffer.size());
      Flit flit = std::move(vc.buffer.front());
      vc.buffer.pop_front();
      --node_flits_[node];
#if defined(DDPM_MODEL_MUTATIONS)
      // Under the off-by-one mutation the sender "knows" about one slot
      // that does not exist; clamp so the counter models that belief
      // rather than underflowing.
      if (out.credits > 0) --out.credits;
#else
      --out.credits;
#endif
      const int in_port = int(unit_port_[unit]);
      const int in_vc = int(unit_vc_[unit]);
      return_credit(node, in_port, in_vc);
      const NodeId next = table_.next_node(node, out_port);
      const int next_in_port = table_.reverse_port(node, out_port);
      if (flit.tail) {
        out.allocated = false;
        vc.active = false;
        vc.out_port = -1;
      }
      staged_.push_back(Staged{next, next_in_port, vc.out_vc,
                               std::move(flit)});
      rr = (unit + 1 == std::size_t(in_units)) ? 0 : unit + 1;
      break;  // one flit per output port per cycle
    }
  }
}

DDPM_HOT void WormholeNetwork::step_ref() {
  const NodeId n_nodes = NodeId(num_nodes_);
  for (NodeId node = 0; node < n_nodes; ++node) {
    // A node with no buffered flits has no allocation, traversal, or
    // ejection work: skipping it is observationally identical (no probes
    // fire, no round-robin pointer moves on an all-empty switch).
    if (node_flits_[node] == 0) continue;
    switch_allocation(node);
  }
  progress_marker_ += staged_.size();
  for (Staged& s : staged_) {
    ++node_flits_[s.node];
    input_vc(s.node, s.in_port, s.vc).buffer.push_back(std::move(s.flit));
  }
  staged_.clear();
}

// --------------------------------------------------------------------------
// SoA engine. Same cycle semantics, driven by bitmasks: the allocation
// pass walks the occupancy mask (one ctz per occupied unit), traversal
// arbitration walks req & occ rotated to the round-robin pointer, and the
// node loop walks the two-level active bitmap — everything in the same
// ascending order the reference engine's full scans observe, so probes
// fire and credits move identically.
// --------------------------------------------------------------------------

DDPM_HOT void WormholeNetwork::soa_eject(NodeId node, int unit) {
  const std::size_t g = std::size_t(node) * std::size_t(soa_units_) +
                        std::size_t(unit);
  UnitCtl& ctl = soa_in_[g];
  while (soa_qsize(node, unit, ctl) > 0) {
    const Flit flit = soa_qfront(node, unit, ctl);
    soa_qpop(node, unit, ctl);
    --flits_in_flight_;
    ++progress_marker_;
    if (flit.tail) {
      ctl.active = 0;
      // The tail is the packet's last use: its slab slot is released here.
      if (ctl.out_port == -2) {
        ++dropped_ttl_;
        packets_.release(flit.pkt);
      } else {
        packets_[flit.pkt].delivered_at = cycle_;
        ++delivered_;
        probes_.on_delivered();
        // Take the packet out before the hook: a hook that injects may grow
        // the slab, which would invalidate a reference into it.
        if (hook_) {
          hook_(packets_.take(flit.pkt), node);
        } else {
          packets_.release(flit.pkt);
        }
      }
      ctl.out_port = -1;
      break;
    }
  }
  if (soa_qsize(node, unit, ctl) == 0) soa_note_empty(node, unit);
}

DDPM_HOT bool WormholeNetwork::soa_allocate(NodeId node, int in_port,
                                            int unit) {
  const std::size_t g = std::size_t(node) * std::size_t(soa_units_) +
                        std::size_t(unit);
  UnitCtl& ctl = soa_in_[g];
  const Flit& head = soa_qfront(node, unit, ctl);
  pkt::Packet& packet = packets_[head.pkt];
  const Port arrived_on =
      in_port == injection_port() ? route::kLocalPort : Port(in_port);

  if (packet.header.ttl() == 0) {
    ctl.active = 1;
    ctl.out_port = -2;  // discard sink
    ctl.out_vc = -1;
    ctl.out_slot = -1;
    return true;
  }

  Port best_port = -1;
  int best_vc = -1;
  int best_credits = 0;
  if (!cand_mask_.empty()) {
    std::uint32_t mask = cand_mask_[std::size_t(node) * std::size_t(num_nodes_) +
                                    std::size_t(packet.dest_node)];
    while (mask != 0) {
      const Port p = Port(__builtin_ctz(mask));
      mask &= mask - 1;
      for (int v = escape_vcs_; v < total_vcs(); ++v) {
        const OutCtl& out = soa_out_[soa_out_index(node, p, v)];
        if (out.allocated == 0 && int(out.credits) > best_credits) {
          best_credits = int(out.credits);
          best_port = p;
          best_vc = v;
        }
      }
    }
  } else {
    // Cold fallback (tables disabled or over budget), same as the
    // reference engine's.
    const auto candidates = router_.candidates(  // ddpm-analyze: allow(hot-no-virtual)
        node, packet.dest_node, arrived_on);
    for (Port p : candidates) {
      for (int v = escape_vcs_; v < total_vcs(); ++v) {
        const OutCtl& out = soa_out_[soa_out_index(node, p, v)];
        if (out.allocated == 0 && int(out.credits) > best_credits) {
          best_credits = int(out.credits);
          best_port = p;
          best_vc = v;
        }
      }
    }
  }

  std::uint8_t next_class = head.escape_class;
  if (best_port < 0 &&
      (config_.disable_escape || DDPM_MODEL_MUTATION(kSkipEscapeFallback))) {
    probes_.on_alloc_stall();
    return false;
  }
  if (best_port < 0) {
    Port p = -1;
    if (!escape_port_.empty()) {
      p = escape_port_[std::size_t(node) * std::size_t(num_nodes_) +
                       std::size_t(packet.dest_node)];
      if (p < 0) return false;  // only possible if already at dest
    } else {
      const auto escape =
          escape_router_.candidates(node, packet.dest_node, arrived_on);
      if (escape.empty()) return false;  // only possible if already at dest
      p = escape.front();
    }
    if (escape_vcs_ > 1) {
      const std::size_t dim = std::size_t(p / 2);
      bool same_dim_as_arrival = false;
      if (arrived_on != route::kLocalPort) {
        same_dim_as_arrival = (std::size_t(arrived_on / 2) == dim);
      }
      if (!same_dim_as_arrival) next_class = 0;
      if (table_.wraps(node, p)) {
        next_class = 1;  // wrap crossing
      }
    }
    const int v = int(next_class);
    const OutCtl& out = soa_out_[soa_out_index(node, p, v)];
    if (out.allocated != 0 || out.credits == 0) {
      (out.allocated != 0 ? probes_.on_alloc_stall()
                          : probes_.on_credit_stall());
      return false;  // wait
    }
    best_port = p;
    best_vc = v;
  }

  const std::size_t slot = soa_out_index(node, best_port, best_vc);
  soa_out_[slot].allocated = 1;
  probes_.on_vc_alloc();
  ctl.active = 1;
  ctl.out_port = std::int16_t(best_port);
  ctl.out_vc = std::int8_t(best_vc);
  ctl.out_slot = std::int32_t(slot);
  req_[std::size_t(node) * std::size_t(num_ports_) + std::size_t(best_port)] |=
      (std::uint64_t(1) << unsigned(unit));
  const NodeId next = table_.next_node(node, best_port);
  packet.header.decrement_ttl();
  if (scheme_ != nullptr) scheme_->on_forward(packet, node, next);  // ddpm-analyze: allow(hot-no-virtual)
  ++packet.hops;
  if (!packet.trace.empty()) packet.trace.push_back(next);  // ddpm-analyze: allow(hot-no-alloc)
  soa_qfront(node, unit, ctl).escape_class = next_class;
  return true;
}

DDPM_HOT void WormholeNetwork::soa_switch_allocation(NodeId node) {
  const std::size_t base = std::size_t(node) * std::size_t(soa_units_);

  // VC allocation + ejection/discard, over occupied units only. In-transit
  // units (out_port claimed == some req_ bit set) are provably no-ops in
  // this pass — the reference engine falls through both branches without
  // firing a probe — so they are masked out up front; what remains is
  // units awaiting allocation, ejection, or discard. The mask snapshot is
  // safe: this pass can only empty the unit it is processing, never
  // another unit at this node (and staged arrivals land after the full
  // node sweep), so snapshot == live set; emptiness is still re-checked
  // per unit like the reference engine does.
  const std::size_t rbase = std::size_t(node) * std::size_t(num_ports_);
  std::uint64_t transit = 0;
  for (Port p = 0; p < num_ports_; ++p) transit |= req_[rbase + std::size_t(p)];
  std::uint64_t occ = occ_[node] & ~transit;
  while (occ != 0) {
    const int unit = __builtin_ctzll(occ);
    occ &= occ - 1;
    UnitCtl& ctl = soa_in_[base + std::size_t(unit)];
    if (soa_qsize(node, unit, ctl) == 0) continue;
    if (ctl.active == 0) {
      const Flit& front = soa_qfront(node, unit, ctl);
      if (!front.head) continue;  // body flits of an ejected/advancing head
      if (packets_[front.pkt].dest_node == node) {
        const std::size_t consumed = soa_qsize(node, unit, ctl);
        ctl.out_port = -1;
        ctl.active = 1;  // occupy until tail passes
        soa_eject(node, unit);
        for (std::size_t i = 0; i < consumed - soa_qsize(node, unit, ctl);
             ++i) {
          soa_return_credit(base + std::size_t(unit));
        }
        continue;
      }
      if (!soa_allocate(node, int(unit_port_[std::size_t(unit)]), unit)) {
        continue;
      }
    }
    if (ctl.active != 0 && (ctl.out_port == -1 || ctl.out_port == -2)) {
      const std::size_t before = soa_qsize(node, unit, ctl);
      soa_eject(node, unit);
      for (std::size_t i = 0; i < before - soa_qsize(node, unit, ctl); ++i) {
        soa_return_credit(base + std::size_t(unit));
      }
    }
  }

  // Switch traversal: each output port forwards at most one flit. The
  // candidate mask (active units routed to this port that hold a flit)
  // is rotated to the round-robin pointer, reproducing the reference
  // engine's wrap-around scan order — including the credit-stall probes
  // on skipped candidates.
  for (Port out_port = 0; out_port < num_ports_; ++out_port) {
    const std::size_t np = rbase + std::size_t(out_port);
    const std::uint64_t cand = req_[np] & occ_[node];
    if (cand == 0) continue;
    std::uint8_t& rr = soa_rr_[np];
    const std::uint64_t high =
        rr == 0 ? cand : (cand >> unsigned(rr)) << unsigned(rr);
    std::uint64_t part = high != 0 ? high : (cand ^ high);
    bool wrapped = (high == 0);
    while (part != 0) {
      const int unit = __builtin_ctzll(part);
      part &= part - 1;
      if (part == 0 && !wrapped) {
        part = cand ^ high;  // continue the scan below the pointer
        wrapped = true;
      }
      UnitCtl& ctl = soa_in_[base + std::size_t(unit)];
      OutCtl& out = soa_out_[std::size_t(ctl.out_slot)];
      if (out.credits == 0 && !DDPM_MODEL_MUTATION(kBufferOffByOne)) {
        probes_.on_credit_stall();
        continue;
      }
      probes_.on_flit_forward();
      probes_.on_buffer_sample(soa_qsize(node, unit, ctl));
      const Flit flit = soa_qfront(node, unit, ctl);
      soa_qpop(node, unit, ctl);
#if defined(DDPM_MODEL_MUTATIONS)
      // See the reference-engine traversal: model the sender's stale belief
      // without underflowing the counter.
      if (out.credits > 0) --out.credits;
#else
      --out.credits;
#endif
      soa_return_credit(base + std::size_t(unit));
      const LinkDst dst = link_dst_[np];
      if (flit.tail) {
        out.allocated = 0;
        ctl.active = 0;
        ctl.out_port = -1;
        req_[np] &= ~(std::uint64_t(1) << unsigned(unit));
      }
      soa_staged_.push_back(SoaStaged{
          dst.node, std::uint16_t(dst.unit_base + unsigned(ctl.out_vc)),
          flit});
      if (soa_qsize(node, unit, ctl) == 0) soa_note_empty(node, unit);
      rr = std::uint8_t(unit + 1 == soa_units_ ? 0 : unit + 1);
      break;  // one flit per output port per cycle
    }
  }
}

DDPM_HOT void WormholeNetwork::step_soa() {
  // Two-level active-node bitmap walk, ascending. Processing a node can
  // only clear ITS OWN bits (other nodes' occupancy moves via staged_,
  // which lands after the sweep), so word snapshots match the live set.
  for (std::size_t grp = 0; grp < group_mask_.size(); ++grp) {
    std::uint64_t gw = group_mask_[grp];
    while (gw != 0) {
      const std::size_t word = grp * 64 + std::size_t(__builtin_ctzll(gw));
      gw &= gw - 1;
      std::uint64_t nw = node_mask_[word];
      while (nw != 0) {
        const NodeId node = NodeId(word * 64 + std::size_t(__builtin_ctzll(nw)));
        nw &= nw - 1;
        soa_switch_allocation(node);
      }
    }
  }
  progress_marker_ += soa_staged_.size();
  // Arrivals always land on a switch unit (links feed ports 0..P-1), so
  // landing is a direct slab store: window base + (head + count) mod B.
  const std::size_t depth = std::size_t(config_.buffer_flits);
  for (const SoaStaged& s : soa_staged_) {
    UnitCtl& ctl = soa_in_[std::size_t(s.node) * std::size_t(soa_units_) +
                           std::size_t(s.unit)];
    std::size_t pos = std::size_t(ctl.qhead) + std::size_t(ctl.qcount);
    if (pos >= depth) pos -= depth;
    fbuf_[fbase(s.node, int(s.unit)) + pos] = s.flit;
    ++ctl.qcount;
    soa_note_push(s.node, int(s.unit));
  }
  soa_staged_.clear();
}

DDPM_HOT void WormholeNetwork::step() {
  const std::uint64_t before = progress_marker_;
  if (soa_units_ != 0) {
    step_soa();
  } else {
    step_ref();
  }
  ++cycle_;
  probes_.on_cycle(cycle_, flits_in_flight_);
  if (progress_marker_ == before && flits_in_flight_ > 0) {
    ++stall_cycles_;
  } else {
    stall_cycles_ = 0;
  }
}

void WormholeNetwork::run(std::uint64_t cycles) {
  for (std::uint64_t i = 0; i < cycles; ++i) step();
}

bool WormholeNetwork::drain(std::uint64_t max_cycles) {
  for (std::uint64_t i = 0; i < max_cycles; ++i) {
    if (flits_in_flight_ == 0) return true;
    if (deadlocked()) return false;  // no point burning cycles
    step();
  }
  return flits_in_flight_ == 0;
}

}  // namespace ddpm::wormhole
