#include "attack/spoof.hpp"

namespace ddpm::attack {

std::string to_string(SpoofStrategy strategy) {
  switch (strategy) {
    case SpoofStrategy::kNone: return "none";
    case SpoofStrategy::kRandomCluster: return "random-cluster";
    case SpoofStrategy::kRandomAny: return "random-any";
    case SpoofStrategy::kVictimReflect: return "victim-reflect";
  }
  return "unknown";
}

namespace {

pkt::Ipv4Address spoofed_source(SpoofStrategy strategy,
                                const pkt::AddressMap& addresses,
                                topo::NodeId attacker, topo::NodeId victim,
                                netsim::Rng& rng) {
  switch (strategy) {
    case SpoofStrategy::kNone:
      return addresses.address_of(attacker);
    case SpoofStrategy::kRandomCluster:
      return addresses.address_of(
          topo::NodeId(rng.next_below(addresses.num_nodes())));
    case SpoofStrategy::kRandomAny:
      return pkt::Ipv4Address(rng.next_u64());
    case SpoofStrategy::kVictimReflect:
      return addresses.address_of(victim);
  }
  return addresses.address_of(attacker);
}

}  // namespace

void apply_spoof(pkt::Packet& packet, SpoofStrategy strategy,
                 const pkt::AddressMap& addresses, topo::NodeId attacker,
                 topo::NodeId victim, netsim::Rng& rng) {
  packet.header.set_source(
      spoofed_source(strategy, addresses, attacker, victim, rng));
}

}  // namespace ddpm::attack
