// IP source-address spoofing strategies (paper §1, §4.1: "attackers
// generate packets with spoofed IP addresses").
//
// Spoofing only rewrites the header's source address; the marking schemes
// never read that field, which is the whole point of traceback.
#pragma once

#include <string>

#include "netsim/rng.hpp"
#include "packet/address_map.hpp"
#include "packet/packet.hpp"

namespace ddpm::attack {

enum class SpoofStrategy {
  kNone,           // honest source address
  kRandomCluster,  // a random *valid* cluster address (hardest to filter)
  kRandomAny,      // arbitrary 32-bit address (ingress filtering catches it)
  kVictimReflect,  // the victim's own address (classic reflection setup)
};

std::string to_string(SpoofStrategy strategy);

/// The source address the strategy forges. `attacker` is the real source
/// node, `victim` the target node. Draws from `rng` exactly as many times
/// as the strategy needs (random-cluster: one next_below, random-any: one
/// next_u64, the others none) — a source blocked before its packet is built
/// calls this too, so its stream stays where the packet would leave it.
pkt::Ipv4Address spoofed_source(SpoofStrategy strategy,
                                const pkt::AddressMap& addresses,
                                topo::NodeId attacker, topo::NodeId victim,
                                netsim::Rng& rng);

/// Writes spoofed_source(...) into the packet's source address.
void apply_spoof(pkt::Packet& packet, SpoofStrategy strategy,
                 const pkt::AddressMap& addresses, topo::NodeId attacker,
                 topo::NodeId victim, netsim::Rng& rng);

}  // namespace ddpm::attack
