#include "wormhole/wormhole.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "routing/deadlock.hpp"
#include "routing/dor.hpp"

namespace ddpm::wormhole {

namespace {

int escape_vcs_for(const topo::Topology& topo, const WormholeConfig& config) {
  if (config.disable_escape) return 0;
  return topo.kind() == topo::TopologyKind::kTorus ? 2 : 1;
}

const WormholeConfig& validated(const WormholeConfig& config,
                                const topo::Topology& topo) {
  config.validate(topo);
  return config;
}

}  // namespace

void WormholeConfig::validate(const topo::Topology& topo) const {
  const auto reject = [](const char* field, const std::string& rule) {
    throw std::invalid_argument(std::string("WormholeConfig: ") + field +
                                " " + rule);
  };
  // 0 would divide by zero when inject() segments a packet into flits.
  if (flit_bytes < 1) reject("flit_bytes", "must be at least 1");
  if (adaptive_vcs < 0) {
    reject("adaptive_vcs",
           "must be non-negative, got " + std::to_string(adaptive_vcs));
  }
  const int vcs = escape_vcs_for(topo, *this) + adaptive_vcs;
  if (vcs < 1) {
    reject("adaptive_vcs",
           "must be at least 1 when disable_escape leaves no escape VC");
  }
  if (buffer_flits < 1 || buffer_flits > 0x7fff) {
    reject("buffer_flits", "must be in [1, 32767] (16-bit credit counters), "
                           "got " + std::to_string(buffer_flits));
  }
  const int units = (topo.num_ports() + 1) * vcs;
  if (units > 64) {
    reject("adaptive_vcs",
           "gives (ports + 1) * VCs = (" + std::to_string(topo.num_ports()) +
               " + 1) * " + std::to_string(vcs) + " = " +
               std::to_string(units) + " input units per switch on " +
               topo.spec() + "; the unit masks hold 64");
  }
}

WormholeNetwork::WormholeNetwork(const topo::Topology& topo,
                                 const route::Router& router,
                                 mark::MarkingScheme* scheme,
                                 WormholeConfig config)
    : router_(router),
      scheme_(scheme),
      config_(validated(config, topo)),
      escape_vcs_(escape_vcs_for(topo, config)),
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
  units_ = (num_ports_ + 1) * V;
  switch_units_ = num_ports_ * V;
  unit_port_.resize(std::size_t(units_));
  for (int unit = 0; unit < units_; ++unit) {
    unit_port_[std::size_t(unit)] = unit / V;
  }
  const std::size_t N = std::size_t(num_nodes_);
  const std::size_t U = std::size_t(units_);
  // The slab preallocates every switch unit at full credit depth, so
  // steady-state push/pop touches no queue metadata beyond the unit's own
  // control record and never allocates (tests/test_wormhole_steady_alloc
  // proves it at runtime, the hot-no-alloc rule statically). Injection
  // queues are unbounded and grow only in inject(), off the hot path.
  fbuf_.assign(N * std::size_t(switch_units_) *
                   std::size_t(config_.buffer_flits),
               Flit{});
  inj_buf_.resize(N * std::size_t(V));
  in_.assign(N * U, UnitCtl{});
  out_.assign(N * std::size_t(num_ports_) * std::size_t(V), OutCtl{});
  for (OutCtl& out : out_) out.credits = std::int16_t(config_.buffer_flits);
  rr_.assign(N * std::size_t(num_ports_), 0);
  occ_.assign(N, 0);
  req_.assign(N * std::size_t(num_ports_), 0);
  node_mask_.assign((N + 63) / 64, 0);
  group_mask_.assign((node_mask_.size() + 63) / 64, 0);
  // At most one flit per output port per node lands per cycle.
  staged_.reserve(N * std::size_t(num_ports_));
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
            std::int32_t(out_index(up, up_port, vc));
      }
      link_dst_[std::size_t(n) * std::size_t(num_ports_) + std::size_t(p)] =
          LinkDst{up, std::uint16_t(up_port * V)};
    }
  }
}

void WormholeNetwork::inject(pkt::Packet&& packet, NodeId src) {
  if (scheme_ != nullptr) scheme_->on_injection(packet, src);
  packet.header.set_ttl(config_.initial_ttl);
  const std::uint32_t flits = std::max<std::uint32_t>(
      1, (packet.wire_bytes() + config_.flit_bytes - 1) / config_.flit_bytes);
  const std::uint32_t id = packets_.acquire(std::move(packet));
  const int unit = switch_units_;  // injection port, VC 0
  core::RingBuffer<Flit>& buf = inj_queue(src, unit);
  for (std::uint32_t i = 0; i < flits; ++i) {
    Flit flit;
    flit.head = (i == 0);
    flit.tail = (i + 1 == flits);
    flit.pkt = id;
    buf.push_back(std::move(flit));
  }
  note_push(src, unit);
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
  const std::size_t in_units = std::size_t(units_);
  snap.occupancy.assign(std::size_t(num_nodes_) * in_units, 0);
  for (std::size_t g = 0; g < snap.occupancy.size(); ++g) {
    const std::size_t u = g % in_units;
    snap.occupancy[g] =
        int(u) < switch_units_
            ? in_[g].qcount
            : std::uint32_t(inj_buf_[(g / in_units) * std::size_t(V) +
                                     (u - std::size_t(switch_units_))]
                                .size());
  }
  snap.credits.reserve(out_.size());
  snap.allocated.reserve(out_.size());
  for (const OutCtl& out : out_) {
    snap.credits.push_back(out.credits);
    snap.allocated.push_back(out.allocated);
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
  // cycles the staging vector is empty), and nothing is double-counted.
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
  for (const core::RingBuffer<Flit>& q : inj_buf_) total += q.size();
  return total;
}

// --------------------------------------------------------------------------
// The engine. Bitmask-driven passes: the allocation pass walks the
// occupancy mask (one ctz per occupied unit), traversal arbitration walks
// req & occ rotated to the round-robin pointer, and the node loop walks
// the two-level active bitmap — every walk ascending, so probes fire and
// credits move in one fixed order (the order ProtoModel restates).
// --------------------------------------------------------------------------

DDPM_HOT void WormholeNetwork::eject(NodeId node, int unit) {
  const std::size_t g =
      std::size_t(node) * std::size_t(units_) + std::size_t(unit);
  UnitCtl& ctl = in_[g];
  while (qsize(node, unit, ctl) > 0) {
    const Flit flit = qfront(node, unit, ctl);
    qpop(node, unit, ctl);
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
  if (qsize(node, unit, ctl) == 0) note_empty(node, unit);
}

DDPM_HOT bool WormholeNetwork::allocate(NodeId node, int in_port, int unit) {
  const std::size_t g =
      std::size_t(node) * std::size_t(units_) + std::size_t(unit);
  UnitCtl& ctl = in_[g];
  const Flit& head = qfront(node, unit, ctl);
  pkt::Packet& packet = packets_[head.pkt];
  const Port arrived_on =
      in_port == num_ports_ ? route::kLocalPort : Port(in_port);

  // Hop budget: a packet whose TTL expires is consumed silently (the
  // discard sink, drained by eject). With minimal adaptive candidates
  // this cannot trigger; it is the safety net the walker and the
  // store-and-forward switch also have.
  if (packet.header.ttl() == 0) {
    ctl.active = 1;
    ctl.out_port = -2;  // discard sink
    ctl.out_vc = -1;
    ctl.out_slot = -1;
    return true;
  }

  // 1. Adaptive VCs on any port the router offers: pick the (port, vc)
  //    with the most downstream credits (congestion-aware), first-wins on
  //    ties, in the router's candidate order. The router is the
  //    experiment's routing variable, as the scheme is its marking
  //    variable: one dispatch per head per hop, by design.
  Port best_port = -1;
  int best_vc = -1;
  int best_credits = 0;
  const route::PortList candidates = router_.candidates(  // ddpm-analyze: allow(hot-no-virtual)
      node, packet.dest_node, arrived_on);
  for (const Port p : candidates) {
    for (int v = escape_vcs_; v < total_vcs(); ++v) {
      const OutCtl& out = out_[out_index(node, p, v)];
      if (out.allocated == 0 && int(out.credits) > best_credits) {
        best_credits = int(out.credits);
        best_port = p;
        best_vc = v;
      }
    }
  }

  // 2. Escape layer: dimension-order port (the lowest productive one),
  //    dateline-disciplined VC class.
  std::uint8_t next_class = head.escape_class;
  if (best_port < 0 &&
      (config_.disable_escape || DDPM_MODEL_MUTATION(kSkipEscapeFallback))) {
    probes_.on_alloc_stall();
    return false;  // no escape lanes: wait (possibly forever — deadlock)
  }
  if (best_port < 0) {
    const std::uint32_t productive =
        route::productive_mask(table_, node, packet.dest_node);
    if (productive == 0) return false;  // only possible if already at dest
    const Port p = Port(__builtin_ctz(productive));
    if (escape_vcs_ > 1) {
      // Torus dateline: entering a new dimension resets the class; taking
      // the wraparound link (the link table's wrap flag) promotes it.
      const bool same_dim_as_arrival =
          arrived_on != route::kLocalPort && arrived_on / 2 == p / 2;
      if (!same_dim_as_arrival) next_class = 0;
      if (table_.wraps(node, p)) next_class = 1;  // wrap crossing
    }
    const int v = int(next_class);
    const OutCtl& out = out_[out_index(node, p, v)];
    if (out.allocated != 0 || out.credits == 0) {
      (out.allocated != 0 ? probes_.on_alloc_stall()
                          : probes_.on_credit_stall());
      return false;  // wait
    }
    best_port = p;
    best_vc = v;
  }

  // Claim the output VC; run TTL + marking once per switch, exactly at the
  // post-routing point Figure 4 prescribes.
  const std::size_t slot = out_index(node, best_port, best_vc);
  out_[slot].allocated = 1;
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
  // Path tracing is opt-in (trace seeded non-empty) and bounded by TTL.
  if (!packet.trace.empty()) packet.trace.push_back(next);  // ddpm-analyze: allow(hot-no-alloc)
  // Record the downstream escape class on the (future) head flit.
  qfront(node, unit, ctl).escape_class = next_class;
  return true;
}

DDPM_HOT void WormholeNetwork::switch_allocation(NodeId node) {
  const std::size_t base = std::size_t(node) * std::size_t(units_);

  // VC allocation + ejection/discard, over occupied units only. In-transit
  // units (out_port claimed == some req_ bit set) have nothing to do in
  // this pass, so they are masked out up front; what remains is units
  // awaiting allocation, ejection, or discard. The mask snapshot is safe:
  // this pass can only empty the unit it is processing, never another
  // unit at this node (and staged arrivals land after the full node
  // sweep), so snapshot == live set; emptiness is still re-checked per
  // unit.
  const std::size_t rbase = std::size_t(node) * std::size_t(num_ports_);
  std::uint64_t transit = 0;
  for (Port p = 0; p < num_ports_; ++p) transit |= req_[rbase + std::size_t(p)];
  std::uint64_t occ = occ_[node] & ~transit;
  while (occ != 0) {
    const int unit = __builtin_ctzll(occ);
    occ &= occ - 1;
    UnitCtl& ctl = in_[base + std::size_t(unit)];
    if (qsize(node, unit, ctl) == 0) continue;
    if (ctl.active == 0) {
      const Flit& front = qfront(node, unit, ctl);
      if (!front.head) continue;  // body flits of an ejected/advancing head
      if (packets_[front.pkt].dest_node == node) {
        // Local delivery path: consume and credit.
        const std::size_t consumed = qsize(node, unit, ctl);
        ctl.out_port = -1;
        ctl.active = 1;  // occupy until tail passes
        eject(node, unit);
        for (std::size_t i = 0; i < consumed - qsize(node, unit, ctl); ++i) {
          return_credit(base + std::size_t(unit));
        }
        continue;
      }
      if (!allocate(node, int(unit_port_[std::size_t(unit)]), unit)) {
        continue;
      }
    }
    if (ctl.active != 0 && (ctl.out_port == -1 || ctl.out_port == -2)) {
      // Ejection or discard in progress: keep consuming arrivals.
      const std::size_t before = qsize(node, unit, ctl);
      eject(node, unit);
      for (std::size_t i = 0; i < before - qsize(node, unit, ctl); ++i) {
        return_credit(base + std::size_t(unit));
      }
    }
  }

  // Switch traversal: each output port forwards at most one flit. The
  // candidate mask (active units routed to this port that hold a flit)
  // is rotated to the round-robin pointer, giving a wrap-around scan
  // order — credit-stall probes fire on skipped candidates.
  for (Port out_port = 0; out_port < num_ports_; ++out_port) {
    const std::size_t np = rbase + std::size_t(out_port);
    const std::uint64_t cand = req_[np] & occ_[node];
    if (cand == 0) continue;
    std::uint8_t& rr = rr_[np];
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
      UnitCtl& ctl = in_[base + std::size_t(unit)];
      OutCtl& out = out_[std::size_t(ctl.out_slot)];
      if (out.credits == 0 && !DDPM_MODEL_MUTATION(kBufferOffByOne)) {
        probes_.on_credit_stall();
        continue;
      }
      probes_.on_flit_forward();
      probes_.on_buffer_sample(qsize(node, unit, ctl));
      const Flit flit = qfront(node, unit, ctl);
      qpop(node, unit, ctl);
#if defined(DDPM_MODEL_MUTATIONS)
      // Under the off-by-one mutation the sender "knows" about one slot
      // that does not exist; clamp so the counter models that belief
      // rather than underflowing.
      if (out.credits > 0) --out.credits;
#else
      --out.credits;
#endif
      return_credit(base + std::size_t(unit));
      const LinkDst dst = link_dst_[np];
      if (flit.tail) {
        out.allocated = 0;
        ctl.active = 0;
        ctl.out_port = -1;
        req_[np] &= ~(std::uint64_t(1) << unsigned(unit));
      }
      staged_.push_back(Staged{
          dst.node, std::uint16_t(dst.unit_base + unsigned(ctl.out_vc)),
          flit});
      if (qsize(node, unit, ctl) == 0) note_empty(node, unit);
      rr = std::uint8_t(unit + 1 == units_ ? 0 : unit + 1);
      break;  // one flit per output port per cycle
    }
  }
}

DDPM_HOT void WormholeNetwork::step() {
  const std::uint64_t before = progress_marker_;
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
        switch_allocation(node);
      }
    }
  }
  progress_marker_ += staged_.size();
  // Arrivals always land on a switch unit (links feed ports 0..P-1), so
  // landing is a direct slab store: window base + (head + count) mod B.
  const std::size_t depth = std::size_t(config_.buffer_flits);
  for (const Staged& s : staged_) {
    UnitCtl& ctl =
        in_[std::size_t(s.node) * std::size_t(units_) + std::size_t(s.unit)];
    std::size_t pos = std::size_t(ctl.qhead) + std::size_t(ctl.qcount);
    if (pos >= depth) pos -= depth;
    fbuf_[fbase(s.node, int(s.unit)) + pos] = s.flit;
    ++ctl.qcount;
    note_push(s.node, int(s.unit));
  }
  staged_.clear();
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
