#include "detect/detector.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "detect/filter.hpp"

namespace ddpm::detect {
namespace {

pkt::Packet make_packet(pkt::Ipv4Address src,
                        pkt::IpProto proto = pkt::IpProto::kUdp) {
  pkt::Packet p;
  p.header = pkt::IpHeader(src, 42, proto, 64);
  return p;
}

TEST(RateDetector, SilentOnTrickle) {
  RateThresholdDetector detector(0.1, 1000);
  const auto p = make_packet(1);
  for (netsim::SimTime t = 0; t < 100000; t += 100) {  // rate 0.01
    detector.observe(p, t);
  }
  EXPECT_FALSE(detector.alarmed());
}

TEST(RateDetector, AlarmsOnFlood) {
  RateThresholdDetector detector(0.1, 1000);
  const auto p = make_packet(1);
  for (netsim::SimTime t = 0; t < 5000; ++t) {  // rate 1.0
    detector.observe(p, t);
  }
  EXPECT_TRUE(detector.alarmed());
  ASSERT_TRUE(detector.alarm_time().has_value());
  EXPECT_LT(*detector.alarm_time(), 5000u);
}

TEST(RateDetector, AlarmTimeLatches) {
  RateThresholdDetector detector(0.01, 100);
  const auto p = make_packet(1);
  for (netsim::SimTime t = 0; t < 1000; ++t) detector.observe(p, t);
  const auto first = detector.alarm_time();
  ASSERT_TRUE(first.has_value());
  for (netsim::SimTime t = 1000; t < 2000; ++t) detector.observe(p, t);
  EXPECT_EQ(detector.alarm_time(), first);
  detector.reset();
  EXPECT_FALSE(detector.alarmed());
}

TEST(EntropyDetector, SpoofedFloodRaisesEntropy) {
  // Benign: 4 distinct sources (2 bits). Spoofed flood: hundreds of random
  // sources pushes entropy above the benign band.
  EntropyDetector detector(256, 0.5, 4.0);
  netsim::SimTime t = 0;
  for (int i = 0; i < 1000; ++i) {
    detector.observe(make_packet(pkt::Ipv4Address(i % 4)), ++t);
  }
  EXPECT_FALSE(detector.alarmed()) << detector.current_entropy();
  for (int i = 0; i < 1000; ++i) {
    detector.observe(make_packet(pkt::Ipv4Address(0x10000 + i)), ++t);
  }
  EXPECT_TRUE(detector.alarmed());
}

TEST(EntropyDetector, SingleSourceFloodDropsEntropy) {
  EntropyDetector detector(256, 0.5, 4.0);
  netsim::SimTime t = 0;
  for (int i = 0; i < 1000; ++i) {
    detector.observe(make_packet(pkt::Ipv4Address(i % 4)), ++t);
  }
  EXPECT_FALSE(detector.alarmed());
  for (int i = 0; i < 1000; ++i) {
    detector.observe(make_packet(7), ++t);
  }
  EXPECT_TRUE(detector.alarmed());
}

TEST(EntropyDetector, NeedsFullWindow) {
  EntropyDetector detector(1000, 0.5, 4.0);
  netsim::SimTime t = 0;
  for (int i = 0; i < 500; ++i) {
    detector.observe(make_packet(pkt::Ipv4Address(i)), ++t);
  }
  EXPECT_FALSE(detector.alarmed());  // window not yet full
}

TEST(EntropyDetector, WindowIsCappedAgainstStateExhaustion) {
  // A spoofed flood makes every packet a fresh source; without the cap the
  // per-source map would grow with the attacker's address pool. The window
  // clamps to kMaxWindow, bounding distinct map entries to that many.
  EntropyDetector detector(std::size_t(1) << 30, 0.5, 40.0);
  EXPECT_EQ(detector.window(), EntropyDetector::kMaxWindow);
  netsim::SimTime t = 0;
  // Every packet a fresh source, running past the capped window (each
  // packet past the fill recomputes O(window) entropy — keep the overrun
  // tiny).
  const int n = int(EntropyDetector::kMaxWindow) + 64;
  for (int i = 0; i < n; ++i) {
    detector.observe(make_packet(pkt::Ipv4Address(i)), ++t);
  }
  // Memory tracks the window, not the total distinct sources observed.
  EXPECT_LE(detector.memory_bytes(),
            EntropyDetector::kMaxWindow * 32)
      << "per-source state exceeded the capped window";
}

TEST(SynDetector, IgnoresUdp) {
  SynHalfOpenDetector detector(10, 1000);
  netsim::SimTime t = 0;
  for (int i = 0; i < 100; ++i) {
    detector.observe(make_packet(1, pkt::IpProto::kUdp), ++t);
  }
  EXPECT_FALSE(detector.alarmed());
  EXPECT_EQ(detector.half_open(t), 0u);
}

TEST(SynDetector, AlarmsWhenHalfOpenExceedsLimit) {
  SynHalfOpenDetector detector(10, 100000);
  netsim::SimTime t = 0;
  for (int i = 0; i < 11; ++i) {
    detector.observe(make_packet(1, pkt::IpProto::kTcp), ++t);
  }
  EXPECT_TRUE(detector.alarmed());
}

TEST(SynDetector, TimeoutsDrainHalfOpenSlots) {
  SynHalfOpenDetector detector(10, 50);
  netsim::SimTime t = 0;
  for (int i = 0; i < 8; ++i) {
    detector.observe(make_packet(1, pkt::IpProto::kTcp), t += 10);
  }
  // Each SYN expires 50 ticks after it arrived; at t+60 all are gone.
  EXPECT_EQ(detector.half_open(t + 60), 0u);
  EXPECT_FALSE(detector.alarmed());
}

TEST(Filter, SourceNodeRules) {
  BlockingFilter filter(16);
  filter.block_source_node(5);
  EXPECT_TRUE(filter.blocks_injection(5));
  EXPECT_FALSE(filter.blocks_injection(6));
  EXPECT_EQ(filter.rule_count(), 1u);
}

TEST(Filter, SourceNodeRulesAreDenseAndCountedOnce) {
  BlockingFilter filter(100);
  filter.block_source_node(0);
  filter.block_source_node(63);
  filter.block_source_node(64);
  filter.block_source_node(99);
  filter.block_source_node(63);  // duplicate: still one rule
  EXPECT_EQ(filter.rule_count(), 4u);
  for (topo::NodeId n = 0; n < 100; ++n) {
    const bool want = n == 0 || n == 63 || n == 64 || n == 99;
    EXPECT_EQ(filter.blocks_injection(n), want) << n;
  }
  EXPECT_FALSE(filter.blocks_injection(100));
  filter.clear();
  EXPECT_EQ(filter.rule_count(), 0u);
  EXPECT_FALSE(filter.blocks_injection(63));
  filter.block_source_node(63);  // the bitmap survives clear()
  EXPECT_TRUE(filter.blocks_injection(63));
  EXPECT_EQ(filter.rule_count(), 1u);
}

TEST(Filter, IdsOutsideTheTopologyAreRejected) {
  // A bogus id (here the invalid-node sentinel and 2^31) is refused: it
  // neither grows the bitmap nor counts as a rule, and never blocks.
  BlockingFilter filter(16);
  EXPECT_THROW(filter.block_source_node(16), std::invalid_argument);
  EXPECT_THROW(filter.block_source_node(topo::kInvalidNode),
               std::invalid_argument);
  EXPECT_THROW(filter.block_source_node(topo::NodeId{1} << 31),
               std::invalid_argument);
  EXPECT_EQ(filter.rule_count(), 0u);
  EXPECT_FALSE(filter.blocks_injection(16));
  EXPECT_FALSE(filter.blocks_injection(topo::kInvalidNode));
  filter.block_source_node(15);
  EXPECT_TRUE(filter.blocks_injection(15));
  EXPECT_EQ(filter.rule_count(), 1u);
}

TEST(Filter, SignatureRules) {
  BlockingFilter filter(16);
  filter.block_signature(0xbeef);
  pkt::Packet hit = make_packet(1);
  hit.set_marking_field(0xbeef);
  pkt::Packet miss = make_packet(1);
  miss.set_marking_field(0xbee0);
  EXPECT_TRUE(filter.blocks_delivery(hit));
  EXPECT_FALSE(filter.blocks_delivery(miss));
}

TEST(Filter, AddressRulesDefeatedBySpoofing) {
  BlockingFilter filter(16);
  filter.block_address(100);
  pkt::Packet honest = make_packet(100);
  EXPECT_TRUE(filter.blocks_delivery(honest));
  pkt::Packet spoofed = make_packet(100);
  spoofed.header.set_source(101);  // attacker rotates addresses
  EXPECT_FALSE(filter.blocks_delivery(spoofed));
}

TEST(Filter, ClearRemovesEverything) {
  BlockingFilter filter(16);
  filter.block_source_node(1);
  filter.block_signature(2);
  filter.block_address(3);
  EXPECT_EQ(filter.rule_count(), 3u);
  filter.clear();
  EXPECT_EQ(filter.rule_count(), 0u);
  EXPECT_FALSE(filter.blocks_injection(1));
}

}  // namespace
}  // namespace ddpm::detect
