#include "routing/router.hpp"

#include <limits>

#include "core/check.hpp"

namespace ddpm::route {

std::optional<Port> pick(const PortList& ports, NodeId current,
                         const LinkStateView& links, netsim::Rng& rng) {
  // Pass 1 records each candidate's cost (NaN = unusable; NaN never ties)
  // and counts the ties at the minimum. `best` starts at +inf, so ports at
  // +inf congestion tie with each other until a finite cost appears.
  double cost[PortList::kCapacity];
  double best = std::numeric_limits<double>::infinity();
  std::size_t ties = 0;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const Port p = ports[i];
    cost[i] = std::numeric_limits<double>::quiet_NaN();
    if (!links.link_usable(current, p)) continue;
    const double c = links.congestion(current, p);
    cost[i] = c;
    if (c < best) {
      best = c;
      ties = 1;
    } else if (c == best) {
      ++ties;
    }
  }
  if (ties == 0) return std::nullopt;
  // Pass 2 returns the k-th tie in candidate order; the draw is made only
  // when there is a choice.
  std::size_t k = ties == 1 ? 0 : std::size_t(rng.next_below(ties));
  for (std::size_t i = 0;; ++i) {
    if (cost[i] == best && k-- == 0) return ports[i];
  }
}

std::optional<Port> Router::select_output(NodeId current, NodeId dest,
                                          Port arrived_on,
                                          const LinkStateView& links,
                                          netsim::Rng& rng) const {
  DDPM_DCHECK(table_.contains(current) && table_.contains(dest),
              "select_output: node id outside topology");
  auto valid_out = [this, current](std::optional<Port> p) {
    // Every emitted port must exist at `current` and lead somewhere: a
    // routing policy that fabricates ports would make the cluster model
    // dereference a nonexistent link.
    DDPM_DCHECK(!p || (*p >= 0 && *p < table_.num_ports()),
                "select_output: port index out of range");
    DDPM_DCHECK(!p || table_.next_node(current, *p) != topo::kInvalidNode,
                "select_output: port has no neighbor");
    return p;
  };
  if (auto p = pick(candidates(current, dest, arrived_on), current, links, rng)) {
    return valid_out(p);
  }
  return valid_out(
      pick(fallback_candidates(current, dest, arrived_on), current, links, rng));
}

}  // namespace ddpm::route
