#include "marking/ddpm.hpp"

#include <bit>
#include <stdexcept>

#include "core/check.hpp"
#include "core/hot_path.hpp"

namespace ddpm::mark {

namespace {

int ceil_log2(unsigned v) {
  // Smallest w with 2^w >= v (v >= 1).
  return v <= 1 ? 0 : std::bit_width(v - 1);
}

}  // namespace

DdpmCodec::DdpmCodec(const topo::Topology& topo)
    : hypercube_(topo.kind() == topo::TopologyKind::kHypercube) {
  const int total = required_bits(topo);
  if (total > 16) {
    throw std::invalid_argument(
        "DdpmCodec: displacement vector needs " + std::to_string(total) +
        " bits, Marking Field has 16 (" + topo.spec() + ")");
  }
  unsigned offset = 0;
  slices_.reserve(topo.num_dims());
  for (std::size_t d = 0; d < topo.num_dims(); ++d) {
    const unsigned width =
        hypercube_ ? 1u
                   : unsigned(ceil_log2(unsigned(topo.dim_size(d))) + 1);
    slices_.push_back({offset, width});
    offset += width;
  }
}

int DdpmCodec::required_bits(const topo::Topology& topo) {
  if (topo.kind() == topo::TopologyKind::kHypercube) {
    return int(topo.num_dims());
  }
  int total = 0;
  for (std::size_t d = 0; d < topo.num_dims(); ++d) {
    total += ceil_log2(unsigned(topo.dim_size(d))) + 1;
  }
  return total;
}

bool DdpmCodec::fits(const topo::Topology& topo) {
  return required_bits(topo) <= 16;
}

DDPM_HOT std::uint16_t DdpmCodec::encode(const topo::Coord& v) const {
  if (v.size() != slices_.size()) {
    // Cold precondition guard: per-hop callers feed encode() the vector
    // decode() just produced, whose size is fixed at construction.
    throw std::invalid_argument(  // ddpm-analyze: allow(hot-no-throw-io)
        "DdpmCodec::encode: dimensionality mismatch");
  }
  std::uint16_t field = 0;
  for (std::size_t d = 0; d < slices_.size(); ++d) {
    DDPM_DCHECK(slices_[d].valid(), "codec slice escaped the 16-bit field");
    if (hypercube_) {
      field = pkt::write_unsigned(field, slices_[d],
                                  static_cast<std::uint16_t>(v[d] & 1));
    } else {
      field = pkt::write_signed(field, slices_[d], v[d]);
    }
  }
  return field;
}

DDPM_HOT topo::Coord DdpmCodec::decode(std::uint16_t field) const {
  topo::Coord v(slices_.size());
  for (std::size_t d = 0; d < slices_.size(); ++d) {
    v[d] = static_cast<topo::Coord::value_type>(
        hypercube_ ? int(pkt::read_unsigned(field, slices_[d]))
                   : pkt::read_signed(field, slices_[d]));
  }
  return v;
}

void DdpmScheme::on_injection(pkt::Packet& packet, NodeId /*at*/) {
  packet.set_marking_field(codec_.encode(topo::Coord(table_.num_dims())));
}

DDPM_HOT void DdpmScheme::on_forward(pkt::Packet& packet, NodeId current,
                                     NodeId next) {
  const topo::Coord v = codec_.decode(packet.marking_field());
  // Hypercube hops flip one coordinate bit, so the per-hop delta and the
  // accumulation are both XOR; elsewhere they are signed differences/sums.
  const topo::Coord& here = table_.coord(current);
  const topo::Coord& there = table_.coord(next);
  topo::Coord updated = codec_.is_hypercube() ? (v ^ (there ^ here))
                                              : (v + (there - here));
  // Honest fields can never leave the codec's range (telescoping bounds
  // every component by the coordinate span), but a compromised switch or
  // an un-reset attacker seed can push the sum to the slice boundary. A
  // switch must not fault on hostile input: saturate instead. A saturated
  // vector decodes to an out-of-range source at the victim, i.e. the
  // tampering is detected rather than silently misattributed.
  if (!codec_.is_hypercube()) {
    for (std::size_t d = 0; d < table_.num_dims(); ++d) {
      const int span = table_.radix(d) - 1;
      if (updated[d] > span || updated[d] < -span) probes_.on_saturation();
      if (updated[d] > span) updated[d] = topo::Coord::value_type(span);
      if (updated[d] < -span) updated[d] = topo::Coord::value_type(-span);
      // Post-saturation, every component fits its codec slice: the slice
      // holds [-2^(w-1), 2^(w-1)-1] with 2^(w-1) >= dim_size > span.
      DDPM_DCHECK(updated[d] >= -span && updated[d] <= span,
                  "displacement escaped saturation bounds");
    }
  }
  packet.set_marking_field(codec_.encode(updated));
  probes_.on_mark();
}

std::vector<NodeId> DdpmIdentifier::observe(const pkt::Packet& packet,
                                            NodeId victim) {
  if (auto src = identify(victim, packet.marking_field())) return {*src};
  return {};
}

std::optional<NodeId> DdpmIdentifier::identify(NodeId victim,
                                               std::uint16_t field) const {
  const topo::Coord v = codec_.decode(field);
  const topo::Coord d = topo_.coord_of(victim);
  const topo::Coord s = codec_.is_hypercube() ? (d ^ v) : (d - v);
  for (std::size_t dim = 0; dim < topo_.num_dims(); ++dim) {
    if (s[dim] < 0 || s[dim] >= topo_.dim_size(dim)) return std::nullopt;
  }
  return topo_.id_of(s);
}

}  // namespace ddpm::mark
