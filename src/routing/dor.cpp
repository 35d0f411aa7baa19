#include "routing/dor.hpp"

#include "core/check.hpp"

namespace ddpm::route {

PortList DimensionOrderRouter::candidates(NodeId current, NodeId dest,
                                          Port /*arrived_on*/) const {
  // The lowest productive port corrects the lowest unaligned dimension:
  // XY order on the mesh and torus, e-cube on the hypercube.
  const std::uint32_t mask = productive_mask(table_, current, dest);
  if (mask == 0) return {};
  const Port p = Port(__builtin_ctz(mask));
  DDPM_DCHECK(p < table_.num_ports(),
              "dimension-order port escaped the switch radix");
  return {p};
}

}  // namespace ddpm::route
