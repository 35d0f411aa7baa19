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

/// Writes the source address the strategy forges into the packet.
/// `attacker` is the real source node, `victim` the target node. Draws from
/// `rng` only as the strategy needs (random-cluster: one next_below,
/// random-any: one next_u64, the others none).
void apply_spoof(pkt::Packet& packet, SpoofStrategy strategy,
                 const pkt::AddressMap& addresses, topo::NodeId attacker,
                 topo::NodeId victim, netsim::Rng& rng);

}  // namespace ddpm::attack
