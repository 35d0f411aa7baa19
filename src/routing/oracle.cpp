#include "routing/oracle.hpp"

#include <deque>
#include <limits>

namespace ddpm::route {

PortList OracleRouter::candidates(NodeId current, NodeId dest,
                                  Port /*arrived_on*/) const {
  // Without link state, fall back to geometry: every port that moves
  // strictly closer by the topology's own metric.
  PortList out;
  if (current == dest) return out;
  const int here = table_.minimal_hops(current, dest);
  for (Port p = 0; p < table_.num_ports(); ++p) {
    const NodeId next = table_.next_node(current, p);
    if (next != topo::kInvalidNode && table_.minimal_hops(next, dest) < here) {
      out.push_back(p);
    }
  }
  return out;
}

PortList OracleRouter::usable_shortest_ports(NodeId current, NodeId dest,
                                             const LinkStateView& links) const {
  // BFS from `dest` over usable links (treated as symmetric) gives each
  // node its usable-path distance; productive ports step down by one.
  std::vector<int> dist(table_.num_nodes(), -1);
  dist[dest] = 0;
  std::deque<NodeId> frontier{dest};
  while (!frontier.empty() && dist[current] < 0) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (Port p = 0; p < table_.num_ports(); ++p) {
      const NodeId v = table_.next_node(u, p);
      if (v == topo::kInvalidNode || dist[v] >= 0 || !links.link_usable(u, p)) {
        continue;
      }
      dist[v] = dist[u] + 1;
      frontier.push_back(v);
    }
  }
  PortList out;
  if (dist[current] <= 0) return out;  // unreachable, or already there
  for (Port p = 0; p < table_.num_ports(); ++p) {
    const NodeId next = table_.next_node(current, p);
    if (next == topo::kInvalidNode || !links.link_usable(current, p)) continue;
    if (dist[next] >= 0 && dist[next] == dist[current] - 1) out.push_back(p);
  }
  return out;
}

std::optional<Port> OracleRouter::select_output(NodeId current, NodeId dest,
                                                Port arrived_on,
                                                const LinkStateView& links,
                                                netsim::Rng& rng) const {
  (void)arrived_on;
  const auto ports = usable_shortest_ports(current, dest, links);
  if (ports.empty()) return std::nullopt;
  // Least congested among shortest-path ports, random tie-break.
  double best = std::numeric_limits<double>::infinity();
  PortList best_ports;
  for (Port p : ports) {
    const double c = links.congestion(current, p);
    if (c < best) {
      best = c;
      best_ports.assign(1, p);
    } else if (c == best) {
      best_ports.push_back(p);
    }
  }
  if (best_ports.size() == 1) return best_ports.front();
  return best_ports[rng.next_below(best_ports.size())];
}

}  // namespace ddpm::route
