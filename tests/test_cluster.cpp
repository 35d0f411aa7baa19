#include "cluster/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "marking/ddpm.hpp"

namespace ddpm::cluster {
namespace {

pkt::Packet make_packet(const ClusterNetwork& net, topo::NodeId src,
                        topo::NodeId dst, std::uint32_t payload = 80) {
  pkt::Packet p;
  p.header = pkt::IpHeader(net.addresses().address_of(src),
                           net.addresses().address_of(dst), pkt::IpProto::kUdp,
                           std::uint16_t(payload));
  p.header.set_ttl(64);
  p.true_source = src;
  p.dest_node = dst;
  p.payload_bytes = payload;
  return p;
}

ClusterConfig quiet_config() {
  ClusterConfig config;
  config.topology = "mesh:4x4";
  config.router = "dor";
  config.scheme = "ddpm";
  config.benign_rate_per_node = 0.0;  // manual injection only
  return config;
}

TEST(Cluster, SinglePacketDeliveredWithExpectedLatency) {
  ClusterNetwork net(quiet_config());
  std::optional<pkt::Packet> got;
  net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId at) {
    EXPECT_EQ(at, 3u);
    got = p;
  });
  net.start();
  auto p = make_packet(net, 0, 3, 80);
  p.injected_at = net.sim().now();
  ASSERT_TRUE(net.inject(std::move(p), 0));
  net.run_until(100000);
  ASSERT_TRUE(got.has_value());
  // 3 hops, each serializing 100 wire bytes at 1 B/tick + 50 ticks of
  // propagation = 3 * 150.
  EXPECT_EQ(got->delivered_at, 450u);
  EXPECT_EQ(got->hops, 3u);
  EXPECT_EQ(net.metrics().delivered_benign, 1u);
}

TEST(Cluster, DdpmIdentifiesInClusterContext) {
  ClusterConfig config = quiet_config();
  config.router = "adaptive";
  ClusterNetwork net(config);
  mark::DdpmIdentifier identifier(net.topology());
  std::vector<topo::NodeId> identified;
  net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId at) {
    for (auto s : identifier.observe(p, at)) identified.push_back(s);
  });
  net.start();
  for (topo::NodeId src = 0; src < 15; ++src) {
    ASSERT_TRUE(net.inject(make_packet(net, src, 15), src));
  }
  net.run_until(1000000);
  ASSERT_EQ(identified.size(), 15u);
  std::sort(identified.begin(), identified.end());
  for (topo::NodeId src = 0; src < 15; ++src) EXPECT_EQ(identified[src], src);
}

TEST(Cluster, TtlExpiryCountsAsDrop) {
  ClusterNetwork net(quiet_config());
  net.start();
  auto p = make_packet(net, 0, 15);
  p.header.set_ttl(2);  // needs 6 hops
  ASSERT_TRUE(net.inject(std::move(p), 0));
  net.run_until(100000);
  EXPECT_EQ(net.metrics().dropped_ttl, 1u);
  EXPECT_EQ(net.metrics().delivered(), 0u);
}

TEST(Cluster, QueueOverflowDrops) {
  ClusterConfig config = quiet_config();
  config.queue_capacity = 2;
  ClusterNetwork net(config);
  net.start();
  // Blast 20 packets through node 0's single productive port at once.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(net.inject(make_packet(net, 0, 3), 0));
  }
  net.run_until(1000000);
  EXPECT_GT(net.metrics().dropped_queue_full, 0u);
  EXPECT_LT(net.metrics().delivered(), 20u);
  EXPECT_EQ(net.metrics().delivered() + net.metrics().dropped_queue_full, 20u);
}

TEST(Cluster, FailedLinkBlocksDeterministicRoute) {
  ClusterNetwork net(quiet_config());
  net.failures().fail(0, 1);  // (0,0)-(0,1): DOR's only way for 0 -> 3
  net.start();
  ASSERT_TRUE(net.inject(make_packet(net, 0, 3), 0));
  net.run_until(100000);
  EXPECT_EQ(net.metrics().dropped_no_route, 1u);
}

TEST(Cluster, SourceBlockRefusesInjection) {
  ClusterNetwork net(quiet_config());
  net.filter().block_source_node(5);
  net.start();
  EXPECT_FALSE(net.inject(make_packet(net, 5, 3), 5));
  EXPECT_EQ(net.metrics().blocked_at_source, 1u);
  EXPECT_TRUE(net.inject(make_packet(net, 6, 3), 6));
}

// A source rule holds for the rest of the run, so each refused node process
// parks: with every node blocked, the network goes quiet for good.
TEST(Cluster, BlockedProcessesParkAndScheduleNothing) {
  ClusterConfig config = quiet_config();
  config.benign_rate_per_node = 0.002;
  ClusterNetwork net(config);
  attack::AttackConfig attack;
  attack.kind = attack::AttackKind::kUdpFlood;
  attack.victim = 15;
  attack.zombies = {5, 6};
  attack.rate_per_zombie = 0.02;
  attack.start_time = 1000;
  net.set_attack(attack);
  const auto nodes = net.topology().num_nodes();
  for (topo::NodeId n = 0; n < nodes; ++n) net.filter().block_source_node(n);
  net.start();
  net.run_until(50000);
  // One benign process per node and one attack process per zombie, each
  // refused once.
  EXPECT_EQ(net.metrics().blocked_at_source, std::uint64_t(nodes) + 2);
  EXPECT_EQ(net.metrics().injected(), 0u);
  EXPECT_EQ(net.sim().pending_count(), 0u);
  const std::uint64_t executed = net.sim().events_executed();
  net.run_until(500000);
  EXPECT_EQ(net.sim().events_executed(), executed);
  EXPECT_EQ(net.sim().pending_count(), 0u);
  EXPECT_EQ(net.metrics().blocked_at_source, std::uint64_t(nodes) + 2);
}

TEST(Cluster, BlockedZombieParksWhileOthersKeepInjecting) {
  ClusterConfig config = quiet_config();
  config.benign_rate_per_node = 0.002;
  ClusterNetwork net(config);
  attack::AttackConfig attack;
  attack.kind = attack::AttackKind::kUdpFlood;
  attack.victim = 15;
  attack.zombies = {5};
  attack.rate_per_zombie = 0.02;
  attack.start_time = 1000;
  net.set_attack(attack);
  std::uint64_t from_zombie = 0;
  net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId) {
    from_zombie += p.true_source == 5;
  });
  net.start();
  net.run_until(20000);
  EXPECT_GT(from_zombie, 0u);
  net.filter().block_source_node(5);
  net.run_until(40000);
  // The zombie's benign and attack processes each parked at one refusal.
  EXPECT_EQ(net.metrics().blocked_at_source, 2u);
  const std::uint64_t benign = net.metrics().injected_benign;
  const std::uint64_t attack_packets = net.metrics().injected_attack;
  const std::uint64_t zombie_deliveries = from_zombie;
  // Everything the zombie injected before the block has landed by now.
  net.run_until(400000);
  EXPECT_EQ(net.metrics().blocked_at_source, 2u);
  EXPECT_EQ(net.metrics().injected_attack, attack_packets);
  EXPECT_EQ(from_zombie, zombie_deliveries);
  // The other 15 nodes keep injecting at about 0.002 per tick each.
  EXPECT_GT(net.metrics().injected_benign, benign + 8000);
}

// One event per hop: a port stamps each packet's start and arrival at
// enqueue and keeps one arrival event pending, for the head of its FIFO.
TEST(Cluster, PortSerializesSameTickPacketsBackToBack) {
  ClusterNetwork net(quiet_config());
  const topo::LinkTable& table = net.topology().link_table();
  topo::Port port = -1;
  for (topo::Port p = 0; p < net.topology().num_ports(); ++p) {
    if (table.next_node(0, p) == 1) port = p;
  }
  ASSERT_GE(port, 0);
  std::vector<netsim::SimTime> landed;
  net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId at) {
    EXPECT_EQ(at, 1u);
    landed.push_back(p.delivered_at);
  });
  net.start();
  // 80 payload bytes: 100 on the wire, tx = 100 ticks at 1 B/tick; L = 50.
  ASSERT_TRUE(net.inject(make_packet(net, 0, 1, 80), 0));
  ASSERT_TRUE(net.inject(make_packet(net, 0, 1, 80), 0));
  // The first serializes from tick 0; the second waits for the link.
  EXPECT_EQ(net.queue_length(0, port), 1u);
  EXPECT_EQ(net.sim().pending_count(), 1u);
  net.run_until(99);
  EXPECT_EQ(net.queue_length(0, port), 1u);
  net.run_until(100);
  EXPECT_EQ(net.queue_length(0, port), 0u);
  EXPECT_EQ(net.sim().pending_count(), 1u);
  net.run_until(150);
  EXPECT_EQ(landed, (std::vector<netsim::SimTime>{150}));
  // Landing the head scheduled the next one's arrival, and only that.
  EXPECT_EQ(net.sim().pending_count(), 1u);
  net.run_until(1000);
  EXPECT_EQ(landed, (std::vector<netsim::SimTime>{150, 250}));
  EXPECT_EQ(net.sim().pending_count(), 0u);
  EXPECT_EQ(net.sim().events_executed(), 2u);
}

TEST(Cluster, SignatureFilterSuppressesDelivery) {
  ClusterConfig config = quiet_config();
  config.scheme = "none";  // keep the field exactly as injected
  ClusterNetwork net(config);
  net.filter().block_signature(0x1234);
  int delivered = 0;
  net.set_delivery_hook([&](const pkt::Packet&, topo::NodeId) { ++delivered; });
  net.start();
  auto bad = make_packet(net, 0, 3);
  bad.set_marking_field(0x1234);
  auto good = make_packet(net, 0, 3);
  good.set_marking_field(0x4321);
  ASSERT_TRUE(net.inject(std::move(bad), 0));
  ASSERT_TRUE(net.inject(std::move(good), 0));
  net.run_until(100000);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.metrics().filtered_at_victim, 1u);
}

TEST(Cluster, BenignTrafficFlowsAndBalances) {
  ClusterConfig config;
  config.topology = "torus:4x4";
  config.router = "adaptive";
  config.benign_rate_per_node = 0.001;
  config.seed = 11;
  ClusterNetwork net(config);
  net.start();
  net.run_until(200000);
  const Metrics& m = net.metrics();
  EXPECT_GT(m.injected_benign, 1000u);
  EXPECT_GT(m.delivered_benign, m.injected_benign * 9 / 10);
  EXPECT_LE(m.delivered(), m.injected());
  EXPECT_GT(m.latency_benign.mean(), 0.0);
  EXPECT_GT(m.hops.mean(), 1.0);
  EXPECT_EQ(m.injected_attack, 0u);
}

TEST(Cluster, FloodAttackReachesVictim) {
  ClusterConfig config;
  config.topology = "mesh:4x4";
  config.benign_rate_per_node = 0.0;
  ClusterNetwork net(config);
  attack::AttackConfig attack;
  attack.kind = attack::AttackKind::kUdpFlood;
  attack.victim = 15;
  attack.zombies = {0, 5, 10};
  attack.rate_per_zombie = 0.002;
  attack.start_time = 1000;
  net.set_attack(attack);
  std::uint64_t victim_got = 0;
  net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId at) {
    if (at == 15 && p.is_attack()) ++victim_got;
  });
  net.start();
  net.run_until(500000);
  EXPECT_GT(net.metrics().injected_attack, 1000u);
  EXPECT_GT(victim_got, 500u);
}

TEST(Cluster, AttackWindowCloses) {
  ClusterConfig config = quiet_config();
  ClusterNetwork net(config);
  attack::AttackConfig attack;
  attack.kind = attack::AttackKind::kUdpFlood;
  attack.victim = 15;
  attack.zombies = {0};
  attack.rate_per_zombie = 0.01;
  attack.start_time = 0;
  attack.stop_time = 10000;
  net.set_attack(attack);
  net.start();
  net.run_until(200000);
  const auto injected = net.metrics().injected_attack;
  EXPECT_GT(injected, 0u);
  // Roughly rate * window worth, certainly not rate * full run.
  EXPECT_LT(injected, 400u);
}

TEST(Cluster, WormSpreadsExponentially) {
  ClusterConfig config;
  config.topology = "mesh:4x4";
  config.benign_rate_per_node = 0.0;
  ClusterNetwork net(config);
  attack::AttackConfig attack;
  attack.kind = attack::AttackKind::kWorm;
  attack.zombies = {0};  // patient zero
  attack.worm_scan_rate = 0.01;
  attack.worm_incubation = 100;
  net.set_attack(attack);
  net.start();
  EXPECT_EQ(net.infected_count(), 1u);
  net.run_until(50000);
  const auto midway = net.infected_count();
  EXPECT_GT(midway, 1u);
  net.run_until(400000);
  EXPECT_EQ(net.infected_count(), 16u);  // full compromise
  EXPECT_TRUE(net.node_infected(13));
}

TEST(Cluster, LifecycleErrors) {
  ClusterNetwork net(quiet_config());
  net.start();
  EXPECT_THROW(net.start(), std::logic_error);
  attack::AttackConfig attack;
  EXPECT_THROW(net.set_attack(attack), std::logic_error);
}

/// Runs `fn`, expecting std::out_of_range whose message names `value`.
template <typename Fn>
void expect_out_of_range_naming(Fn fn, const std::string& value) {
  try {
    fn();
    ADD_FAILURE() << "no exception for " << value;
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find(value), std::string::npos) << e.what();
  }
}

TEST(Cluster, InjectRejectsInjectingNodeOutsideTopology) {
  ClusterNetwork net(quiet_config());  // mesh:4x4, nodes 0..15
  net.start();
  expect_out_of_range_naming(
      [&] { net.inject(make_packet(net, 0, 3), 16); }, "16");
  expect_out_of_range_naming(
      [&] { net.inject(make_packet(net, 0, 3), topo::kInvalidNode); },
      std::to_string(topo::kInvalidNode));
  EXPECT_EQ(net.metrics().injected(), 0u);
  net.run_until(100000);
  EXPECT_EQ(net.metrics().delivered(), 0u);
}

TEST(Cluster, InjectRejectsDestinationOutsideTopology) {
  ClusterNetwork net(quiet_config());
  net.start();
  pkt::Packet p = make_packet(net, 0, 3);
  p.dest_node = 99;
  expect_out_of_range_naming([&] { net.inject(std::move(p), 0); }, "99");
  // A valid injection still works afterwards.
  EXPECT_TRUE(net.inject(make_packet(net, 0, 3), 0));
  net.run_until(100000);
  EXPECT_EQ(net.metrics().delivered(), 1u);
}

TEST(Cluster, RecordTracesCapturesPath) {
  ClusterConfig config = quiet_config();
  config.record_traces = true;
  config.benign_rate_per_node = 0.0001;
  config.seed = 3;
  ClusterNetwork net(config);
  std::vector<topo::NodeId> trace;
  net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId) {
    if (trace.empty()) trace = p.trace;
  });
  net.start();
  net.run_until(200000);
  ASSERT_GT(trace.size(), 1u);
  // Trace must be a connected walk.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_TRUE(net.topology().port_to(trace[i - 1], trace[i]).has_value());
  }
}

TEST(Cluster, IngressFilteringDropsSpoofedInjections) {
  ClusterConfig config = quiet_config();
  config.ingress_filtering = true;
  ClusterNetwork net(config);
  net.start();
  // Honest packet passes.
  EXPECT_TRUE(net.inject(make_packet(net, 0, 3), 0));
  // Spoofed packet (claims node 5's address, injected at node 0) dies.
  auto spoofed = make_packet(net, 0, 3);
  spoofed.header.set_source(net.addresses().address_of(5));
  EXPECT_FALSE(net.inject(std::move(spoofed), 0));
  EXPECT_EQ(net.metrics().dropped_spoofed_ingress, 1u);
  // Foreign (non-cluster) source address dies too.
  auto foreign = make_packet(net, 0, 3);
  foreign.header.set_source(0xdeadbeef);
  EXPECT_FALSE(net.inject(std::move(foreign), 0));
  EXPECT_EQ(net.metrics().dropped_spoofed_ingress, 2u);
}

TEST(Cluster, IngressFilteringNeutralizesSpoofedFloods) {
  ClusterConfig config;
  config.topology = "mesh:4x4";
  config.benign_rate_per_node = 0.0;
  config.ingress_filtering = true;
  ClusterNetwork net(config);
  attack::AttackConfig attack;
  attack.kind = attack::AttackKind::kUdpFlood;
  attack.victim = 15;
  attack.zombies = {0, 5};
  attack.rate_per_zombie = 0.005;
  attack.spoof = attack::SpoofStrategy::kRandomAny;  // never a valid self
  attack.start_time = 0;
  net.set_attack(attack);
  net.start();
  net.run_until(300000);
  EXPECT_EQ(net.metrics().injected_attack, 0u);
  EXPECT_GT(net.metrics().dropped_spoofed_ingress, 1000u);
  EXPECT_EQ(net.metrics().delivered_attack, 0u);
}

TEST(Cluster, MidRunLinkFailureReroutesAdaptiveTraffic) {
  // Fail links while traffic is flowing: adaptive routing detours, DDPM
  // keeps identifying, and only the no-route counter may grow.
  ClusterConfig config;
  config.topology = "mesh:6x6";
  config.router = "adaptive-misroute";
  config.scheme = "ddpm";
  config.benign_rate_per_node = 0.0005;
  config.seed = 77;
  ClusterNetwork net(config);
  mark::DdpmIdentifier identifier(net.topology());
  std::uint64_t checked = 0, correct = 0;
  net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId at) {
    ++checked;
    const auto named = identifier.identify(at, p.marking_field());
    correct += (named && *named == p.true_source);
  });
  net.start();
  net.run_until(100000);
  // Sever a column of links through the middle of the mesh.
  for (int y = 1; y <= 4; ++y) {
    net.failures().fail(net.topology().id_of(topo::Coord{2, y}),
                        net.topology().id_of(topo::Coord{3, y}));
  }
  net.run_until(300000);
  EXPECT_GT(checked, 2000u);
  EXPECT_EQ(correct, checked);  // identification survives the rerouting
  EXPECT_GT(net.metrics().delivered_benign, 2000u);
}

TEST(Cluster, AdaptiveAvoidsCongestedPortsEndToEnd) {
  // Pump a hot flow along one row; a second flow with two minimal choices
  // must mostly take the uncongested one. Compare mean latency against a
  // run where the router is deterministic (forced through the hot row).
  auto run = [](const char* router) {
    ClusterConfig config;
    config.topology = "mesh:4x4";
    config.router = router;
    config.scheme = "none";
    config.benign_rate_per_node = 0.0;
    config.queue_capacity = 64;
    ClusterNetwork net(config);
    net.start();
    // Hot flow: (0,0) -> (3,0) backs up row y=0 (40 packets stay under the
    // queue capacity so the probe is delayed, not dropped).
    for (int i = 0; i < 40; ++i) {
      pkt::Packet hot;
      hot.header = pkt::IpHeader(1, 2, pkt::IpProto::kUdp, 200);
      hot.header.set_ttl(64);
      hot.true_source = net.topology().id_of(topo::Coord{0, 0});
      hot.dest_node = net.topology().id_of(topo::Coord{3, 0});
      hot.payload_bytes = 200;
      hot.injected_at = net.sim().now();
      net.inject(std::move(hot), hot.true_source);
    }
    // Probe flow: (0,0) -> (3,3) has many minimal paths.
    pkt::Packet probe;
    probe.header = pkt::IpHeader(1, 2, pkt::IpProto::kUdp, 64);
    probe.header.set_ttl(64);
    probe.true_source = net.topology().id_of(topo::Coord{0, 0});
    probe.dest_node = net.topology().id_of(topo::Coord{3, 3});
    probe.payload_bytes = 64;
    probe.injected_at = net.sim().now();
    netsim::SimTime probe_latency = 0;
    net.set_delivery_hook([&](const pkt::Packet& p, topo::NodeId) {
      if (p.dest_node == net.topology().id_of(topo::Coord{3, 3})) {
        probe_latency = p.delivered_at - p.injected_at;
      }
    });
    net.inject(std::move(probe), net.topology().id_of(topo::Coord{0, 0}));
    net.run_until(10000000);
    return probe_latency;
  };
  const auto adaptive = run("adaptive");
  const auto deterministic = run("dor");
  EXPECT_LT(adaptive, deterministic / 2);
}

TEST(Cluster, CongestionMetricVisible) {
  ClusterConfig config = quiet_config();
  config.queue_capacity = 64;
  ClusterNetwork net(config);
  net.start();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(net.inject(make_packet(net, 0, 3), 0));
  }
  // Before the simulator runs, packets sit in node 0's output queue.
  EXPECT_GT(net.queue_length(0, 3), 0u);
  net.run_until(1000000);
  EXPECT_EQ(net.queue_length(0, 3), 0u);
}

}  // namespace
}  // namespace ddpm::cluster
