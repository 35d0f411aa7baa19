// Zero-allocation steady-state gate for the store-and-forward cluster
// engine: the same counting global operator new as the wormhole gate
// observes a window of a loaded torus:8x8 flood — switch forwarding,
// routing, marking, the event wheel, traffic generation and delivery —
// and must see zero acquisitions while packets keep being delivered.
#include "cluster/network.hpp"

#include <gtest/gtest.h>

#include "counting_new.hpp"

namespace ddpm::cluster {
namespace {

TEST(ClusterSteadyAlloc, FloodWindowIsAllocationFree) {
  ClusterConfig config;
  config.topology = "torus:8x8";
  config.router = "adaptive";
  config.scheme = "ddpm";
  config.benign_rate_per_node = 0.002;
  config.record_traces = false;
  config.seed = 7;
  ClusterNetwork net(config);

  attack::AttackConfig attack;
  attack.kind = attack::AttackKind::kUdpFlood;
  attack.victim = 27;
  attack.zombies = {0, 9, 18, 36, 45, 54, 63};
  attack.rate_per_zombie = 0.01;
  net.set_attack(attack);
  net.start();

  // Warm-up: queues, the packet slab and the event wheel's buckets reach
  // their steady-state high-water marks.
  net.run_until(200000);
  const std::uint64_t delivered_before = net.metrics().delivered();
  const std::uint64_t forwarded_before = net.metrics().hops.count();
  ASSERT_GT(delivered_before, 0u) << "warm-up delivered nothing";
  ASSERT_GT(net.metrics().dropped_queue_full, 0u) << "network not loaded";

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  net.run_until(300000);
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
      << "the cluster engine allocated during the steady-state window";
  EXPECT_GT(net.metrics().delivered(), delivered_before)
      << "no packet was delivered inside the window";
  EXPECT_GT(net.metrics().hops.count(), forwarded_before);
}

}  // namespace
}  // namespace ddpm::cluster
