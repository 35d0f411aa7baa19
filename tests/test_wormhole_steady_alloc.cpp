// Zero-allocation steady-state gate for the wormhole hot loop.
//
// The static hot-path rules (tools/ddpm_analyze.py, hot-no-alloc) prove the
// absence of allocation *lexically*; this test proves it *dynamically*: a
// counting global operator new observes a 200-cycle steady-state window of
// WormholeNetwork::step() on a loaded mesh:8x8 and must see zero calls.
// Frees are not counted — delivered packets may release their shared state
// inside the window; only acquiring memory is a hot-path violation.
#include "wormhole/wormhole.hpp"

#include <gtest/gtest.h>

#include "counting_new.hpp"
#include "marking/ddpm.hpp"
#include "routing/router.hpp"
#include "topology/factory.hpp"

namespace ddpm::wormhole {
namespace {

pkt::Packet make_packet(NodeId src, NodeId dst, std::uint32_t payload = 60) {
  pkt::Packet p;
  p.header = pkt::IpHeader(src + 1, dst + 1, pkt::IpProto::kUdp,
                           std::uint16_t(payload));
  p.true_source = src;
  p.dest_node = dst;
  p.payload_bytes = payload;
  return p;
}

TEST(WormholeSteadyAlloc, StepIsAllocationFreeInSteadyState) {
  const auto topo = topo::make_topology("mesh:8x8");
  const auto router = route::make_router("adaptive", *topo);
  mark::DdpmScheme scheme(*topo);
  WormholeNetwork net(*topo, *router, &scheme, {});

  // The hook must itself be allocation-free: count deliveries, nothing more.
  std::size_t delivered_in_window = 0;
  net.set_delivery_hook(
      [&delivered_in_window](pkt::Packet&&, NodeId) { ++delivered_in_window; });

  // Load the injection queues up front (inject() may allocate: it is the
  // cold boundary). Random many-to-many traffic keeps every switch busy.
  netsim::Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    const auto s = NodeId(rng.next_below(topo->num_nodes()));
    auto d = NodeId(rng.next_below(topo->num_nodes()));
    if (d == s) d = (d + 1) % topo->num_nodes();
    net.inject(make_packet(s, d), s);
  }

  // Warm-up: staged/rr/buffer structures reach steady occupancy.
  net.run(500);
  ASSERT_GT(net.flits_in_flight(), 0u) << "warm-up drained the network";
  const std::uint64_t delivered_before = net.delivered();

  delivered_in_window = 0;  // hook also saw warm-up deliveries
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  net.run(200);
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
      << "WormholeNetwork::step() allocated during the steady-state window";
  // The window must have been real work, not a drained no-op.
  EXPECT_GT(net.flits_in_flight(), 0u) << "window was not steady state";
  EXPECT_GT(net.delivered(), delivered_before)
      << "no packet completed inside the window";
  EXPECT_EQ(net.delivered() - delivered_before, delivered_in_window);

  ASSERT_TRUE(net.drain(2000000));
}

}  // namespace
}  // namespace ddpm::wormhole
