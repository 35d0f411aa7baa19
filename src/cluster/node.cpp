#include "cluster/node.hpp"

#include <algorithm>

namespace ddpm::cluster {

ComputeNode::ComputeNode(NodeId id, Env* env, netsim::Rng rng)
    : id_(id), env_(env), rng_(rng) {}

bool ComputeNode::is_zombie() const {
  const auto* a = env_->attack;
  if (a == nullptr || a->kind == attack::AttackKind::kNone) return false;
  return std::binary_search(a->zombies.begin(), a->zombies.end(), id_);
}

void ComputeNode::start() {
  if (env_->benign_rate > 0.0) schedule_benign();
  const auto* a = env_->attack;
  if (a == nullptr || a->kind == attack::AttackKind::kNone) return;
  if (!is_zombie()) return;
  // Worm patient zero: infected from the start, scans once the attack opens.
  if (a->kind == attack::AttackKind::kWorm) infected_ = true;
  auto open = [this]() { schedule_attack(); };
  static_assert(netsim::InlineAction::is_trivial<decltype(open)>);
  env_->sim->schedule_at(a->start_time, open);
}

void ComputeNode::schedule_benign() {
  const auto wait =
      netsim::SimTime(rng_.next_exponential(env_->benign_rate)) + 1;
  auto fire = [this]() {
    if (inject_benign()) schedule_benign();
  };
  static_assert(netsim::InlineAction::is_trivial<decltype(fire)>);
  env_->sim->schedule_in(wait, fire);
}

void ComputeNode::schedule_attack() {
  const auto* a = env_->attack;
  const double rate = a->kind == attack::AttackKind::kWorm ? a->worm_scan_rate
                                                           : a->rate_per_zombie;
  if (rate <= 0.0) return;
  const auto wait = netsim::SimTime(rng_.next_exponential(rate)) + 1;
  auto fire = [this]() {
    const auto* cfg = env_->attack;
    const auto now = env_->sim->now();
    if (now > cfg->stop_time) return;  // attack window closed
    // Pulsing (shrew) attack: inject only in the on-phase of each period.
    bool on_phase = true;
    if (cfg->pulse_period > 0 && now >= cfg->start_time) {
      const auto phase = (now - cfg->start_time) % cfg->pulse_period;
      on_phase = double(phase) <
                 cfg->pulse_duty * double(cfg->pulse_period);
    }
    // A refused injection parks the process: a source rule holds for the
    // rest of the run, so every later attempt would be refused too.
    if (on_phase && !inject_attack()) return;
    schedule_attack();
  };
  static_assert(netsim::InlineAction::is_trivial<decltype(fire)>);
  env_->sim->schedule_in(wait, fire);
}

pkt::Packet ComputeNode::make_packet(NodeId dest, pkt::IpProto proto,
                                     pkt::TrafficClass traffic,
                                     std::uint32_t payload) {
  pkt::Packet p;
  p.header = pkt::IpHeader(env_->addresses->address_of(id_),
                           env_->addresses->address_of(dest), proto,
                           std::uint16_t(std::min<std::uint32_t>(payload, 1480)));
  p.header.set_ttl(env_->initial_ttl);
  p.true_source = id_;
  p.dest_node = dest;
  p.traffic = traffic;
  p.payload_bytes = payload;
  p.injected_at = env_->sim->now();
  p.flow = (std::uint64_t(id_) << 40) | next_flow_++;
  if (env_->record_traces) p.trace.push_back(id_);
  return p;
}

bool ComputeNode::inject_benign() {
  const NodeId dest = env_->pattern->pick_dest(id_, rng_);
  if (!env_->admit(id_, dest)) return false;
  pkt::Packet p = make_packet(dest, pkt::IpProto::kUdp,
                              pkt::TrafficClass::kBenign, env_->benign_payload);
  if (env_->inject(std::move(p), id_)) ++env_->metrics->injected_benign;
  return true;
}

bool ComputeNode::inject_attack() {
  const auto* a = env_->attack;
  NodeId dest = a->victim;
  pkt::IpProto proto = pkt::IpProto::kUdp;
  pkt::TrafficClass traffic = pkt::TrafficClass::kAttackFlood;
  switch (a->kind) {
    case attack::AttackKind::kUdpFlood:
      dest = a->victim;
      proto = pkt::IpProto::kUdp;
      traffic = pkt::TrafficClass::kAttackFlood;
      break;
    case attack::AttackKind::kSynFlood:
      dest = a->victim;
      proto = pkt::IpProto::kTcp;
      traffic = pkt::TrafficClass::kAttackSyn;
      break;
    case attack::AttackKind::kWorm: {
      // Random scanning over the whole cluster.
      const auto draw = NodeId(rng_.next_below(env_->topo->num_nodes() - 1));
      dest = draw >= id_ ? draw + 1 : draw;
      proto = pkt::IpProto::kTcp;
      traffic = pkt::TrafficClass::kAttackWorm;
      break;
    }
    case attack::AttackKind::kReflector: {
      // SYN a random reflector (not the victim, not ourselves); the
      // victim's address is forged below, so the reflector's SYN+ACK
      // lands on the victim.
      do {
        dest = NodeId(rng_.next_below(env_->topo->num_nodes()));
      } while (dest == id_ || dest == a->victim);
      proto = pkt::IpProto::kTcp;
      traffic = pkt::TrafficClass::kAttackSyn;
      break;
    }
    case attack::AttackKind::kNone:
      return true;
  }
  // Reflection only works with the victim's address in the source field.
  const auto spoof = a->kind == attack::AttackKind::kReflector
                         ? attack::SpoofStrategy::kVictimReflect
                         : a->spoof;
  if (!env_->admit(id_, dest)) return false;
  pkt::Packet p = make_packet(dest, proto, traffic, a->payload_bytes);
  // SYN floods are streams of fresh connection openers (each flow id is
  // unique from make_packet, so every SYN pins its own backlog slot).
  if (a->kind == attack::AttackKind::kSynFlood ||
      a->kind == attack::AttackKind::kReflector) {
    p.tcp_flags = pkt::tcpflags::kSyn;
  }
  attack::apply_spoof(p, spoof, *env_->addresses, id_, a->victim, rng_);
  if (env_->inject(std::move(p), id_)) ++env_->metrics->injected_attack;
  return true;
}

void ComputeNode::receive(pkt::Packet&& packet) {
  ++received_;
  if (packet.is_attack()) {
    ++env_->metrics->delivered_attack;
    env_->metrics->latency_attack.add(
        double(packet.delivered_at - packet.injected_at));
  } else {
    ++env_->metrics->delivered_benign;
    env_->metrics->latency_benign.add(
        double(packet.delivered_at - packet.injected_at));
    env_->metrics->latency_benign_p99.add(
        double(packet.delivered_at - packet.injected_at));
  }
  env_->metrics->hops.add(double(packet.hops));
  // Worm propagation: a scan that lands on a clean node compromises it
  // after the incubation delay.
  const auto* a = env_->attack;
  if (a != nullptr && a->kind == attack::AttackKind::kWorm &&
      packet.traffic == pkt::TrafficClass::kAttackWorm && !infected_) {
    env_->infect_peer(id_, env_->sim->now() + a->worm_incubation);
  }
  env_->delivered(packet, id_);
}

void ComputeNode::infect() {
  if (infected_) return;
  infected_ = true;
  schedule_attack();
}

}  // namespace ddpm::cluster
