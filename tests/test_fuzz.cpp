// Randomized robustness tests: hostile or random inputs must never crash,
// corrupt state, or violate documented invariants. (The event wheel's
// std::multimap reference model lives in test_event_wheel.cpp; the
// Simulator's, which adds the past-time clamp and bounded runs, is below.)
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "hybrid/hybrid.hpp"
#include "indirect/port_stamp.hpp"
#include "irregular/irregular.hpp"
#include "marking/ddpm.hpp"
#include "netsim/rng.hpp"
#include "netsim/simulator.hpp"
#include "packet/ip_header.hpp"
#include "packet/marking_field.hpp"
#include "topology/factory.hpp"
#include "trace/trace.hpp"

namespace ddpm {
namespace {

TEST(Fuzz, IpHeaderParseNeverCrashesOnRandomBytes) {
  netsim::Rng rng(1);
  int parsed = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::array<std::uint8_t, pkt::IpHeader::kWireSize> wire;
    for (auto& b : wire) b = std::uint8_t(rng.next_u64());
    try {
      const auto h = pkt::IpHeader::parse(wire);
      ++parsed;
      // Anything that parses must re-serialize to valid wire format.
      EXPECT_NO_THROW(pkt::IpHeader::parse(h.serialize()));
    } catch (const std::invalid_argument&) {
      // expected for almost all random byte strings
    }
  }
  // Random bytes essentially never carry a valid version + checksum.
  EXPECT_LT(parsed, 10);
}

TEST(Fuzz, IpHeaderRoundTripRandomFields) {
  netsim::Rng rng(2);
  for (int trial = 0; trial < 5000; ++trial) {
    pkt::IpHeader h(pkt::Ipv4Address(rng.next_u64()),
                    pkt::Ipv4Address(rng.next_u64()),
                    rng.next_bool(0.5) ? pkt::IpProto::kTcp
                                       : pkt::IpProto::kUdp,
                    std::uint16_t(rng.next_below(1480)));
    h.set_identification(std::uint16_t(rng.next_u64()));
    h.set_ttl(std::uint8_t(rng.next_u64()));
    const auto parsed = pkt::IpHeader::parse(h.serialize());
    EXPECT_EQ(parsed.source(), h.source());
    EXPECT_EQ(parsed.destination(), h.destination());
    EXPECT_EQ(parsed.identification(), h.identification());
    EXPECT_EQ(parsed.ttl(), h.ttl());
    EXPECT_EQ(parsed.total_length(), h.total_length());
  }
}

TEST(Fuzz, MarkingFieldSlicesNeverInterfere) {
  // Random disjoint slices written in random order must read back intact.
  netsim::Rng rng(4);
  for (int trial = 0; trial < 5000; ++trial) {
    // Partition 16 bits into 1-4 random slices.
    std::vector<pkt::FieldSlice> slices;
    unsigned offset = 0;
    while (offset < 16) {
      const unsigned width =
          1 + unsigned(rng.next_below(std::min(16u - offset, 6u)));
      slices.push_back({offset, width});
      offset += width;
    }
    std::vector<std::uint16_t> values(slices.size());
    std::uint16_t field = std::uint16_t(rng.next_u64());
    // Write in shuffled order.
    for (std::size_t k = slices.size(); k-- > 0;) {
      const std::size_t i = rng.next_below(slices.size());
      values[i] = std::uint16_t(rng.next_below(1u << slices[i].width));
      field = pkt::write_unsigned(field, slices[i], values[i]);
    }
    // Everything written must read back (unwritten slices unspecified).
    for (std::size_t i = 0; i < slices.size(); ++i) {
      // Only check slices we know were last written with values[i]; since
      // each index may be written several times, re-write then check all.
      field = pkt::write_unsigned(field, slices[i], values[i]);
    }
    for (std::size_t i = 0; i < slices.size(); ++i) {
      EXPECT_EQ(pkt::read_unsigned(field, slices[i]), values[i]);
    }
  }
}

TEST(Fuzz, DdpmIdentifierSafeOnRandomFields) {
  // Random (possibly hostile) marking fields: identify() either names an
  // in-range node or declines; it must never throw or return garbage ids.
  for (const char* spec : {"mesh:6x6", "torus:8x8", "hypercube:7",
                           "mesh:3x5x4"}) {
    const auto topo = topo::make_topology(spec);
    mark::DdpmIdentifier identifier(*topo);
    netsim::Rng rng(5);
    for (int trial = 0; trial < 20000; ++trial) {
      const auto victim = topo::NodeId(rng.next_below(topo->num_nodes()));
      const auto field = std::uint16_t(rng.next_u64());
      const auto named = identifier.identify(victim, field);
      if (named) {
        EXPECT_LT(*named, topo->num_nodes());
      }
    }
  }
}

TEST(Fuzz, DdpmSchemeSurvivesHostileFieldsMidRoute) {
  // A scheme fed arbitrary field values (tampering) must keep working:
  // saturating arithmetic, never throwing.
  const auto topo = topo::make_topology("mesh:6x6");
  mark::DdpmScheme scheme(*topo);
  netsim::Rng rng(6);
  pkt::Packet p;
  for (int trial = 0; trial < 20000; ++trial) {
    p.set_marking_field(std::uint16_t(rng.next_u64()));
    const auto a = topo::NodeId(rng.next_below(topo->num_nodes()));
    const auto neighbors = topo->neighbors(a);
    const auto b = neighbors[rng.next_below(neighbors.size())];
    EXPECT_NO_THROW(scheme.on_forward(p, a, b));
  }
}

TEST(Fuzz, PortStampIdentifySafeOnRandomFields) {
  indirect::Butterfly net(3, 3);  // non-power-of-two radix: dead code points
  indirect::PortStampScheme scheme(net);
  netsim::Rng rng(7);
  for (int trial = 0; trial < 20000; ++trial) {
    const auto field = std::uint16_t(rng.next_u64());
    const auto named = scheme.identify(field);
    if (named) {
      EXPECT_LT(*named, net.num_terminals());
    }
  }
}

TEST(Fuzz, IrregularTopologiesAlwaysFullyRoutable) {
  // Random graph parameters: up*/down* must route every pair on every
  // instance (deadlock-free routability is a theorem; this hunts for
  // implementation gaps in the orientation/state-graph code).
  netsim::Rng rng(9);
  for (int trial = 0; trial < 15; ++trial) {
    const auto nodes = irregular::NodeId(8 + rng.next_below(40));
    const auto max_extra =
        std::size_t(nodes) * (nodes - 1) / 2 - (nodes - 1);
    const auto extra = std::size_t(rng.next_below(
        std::min<std::size_t>(max_extra + 1, std::size_t(nodes) * 2)));
    irregular::IrregularTopology topo(nodes, extra, rng.next_u64());
    irregular::UpDownRouter router(topo);
    for (irregular::NodeId s = 0; s < nodes; ++s) {
      for (irregular::NodeId d = 0; d < nodes; ++d) {
        if (s == d) continue;
        ASSERT_GT(router.legal_distance(s, d), 0)
            << topo.spec() << " " << s << "->" << d;
      }
    }
  }
}

TEST(Fuzz, HybridCodecRandomRoundTrip) {
  hybrid::HybridTopology topo(16, 16);
  hybrid::HierarchicalDdpmCodec codec(topo);
  netsim::Rng rng(10);
  for (int trial = 0; trial < 20000; ++trial) {
    const int local = int(rng.next_below(16));
    const topo::Coord v{int(rng.next_in(-15, 15)), int(rng.next_in(-15, 15))};
    const auto field = codec.encode(local, v);
    EXPECT_EQ(codec.decode_local(field), local);
    EXPECT_EQ(codec.decode_vector(field), v);
  }
}

TEST(Fuzz, TraceParserNeverCrashesOnMangledRows) {
  netsim::Rng rng(11);
  const std::string header = trace::TraceWriter::header();
  for (int trial = 0; trial < 2000; ++trial) {
    std::string line;
    const auto len = rng.next_below(60);
    for (std::uint64_t i = 0; i < len; ++i) {
      const char chars[] = "0123456789,abc -";
      line += chars[rng.next_below(sizeof(chars) - 1)];
    }
    std::istringstream in(header + "\n" + line + "\n");
    try {
      (void)trace::read_trace(in);
    } catch (const std::invalid_argument&) {
      // expected for malformed rows
    }
  }
}

TEST(Fuzz, CodecDecodeEncodeStable) {
  // decode may read any field; encode(decode(f)) must preserve the bits
  // the codec owns (idempotent normalization).
  const auto topo = topo::make_topology("torus:8x8");
  mark::DdpmCodec codec(*topo);
  netsim::Rng rng(8);
  for (int trial = 0; trial < 10000; ++trial) {
    const auto f = std::uint16_t(rng.next_u64());
    const auto v = codec.decode(f);
    const auto f2 = codec.encode(v);
    EXPECT_EQ(codec.decode(f2), v);
  }
}


/// How a fired event schedules its children, derived from a hash of the
/// child's token so the Simulator and the reference model agree on every
/// decision without sharing an RNG stream.
struct ChildPlan {
  bool relative;  // schedule_in(value) vs schedule_at(value)
  netsim::SimTime value;
};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// `far_and_past` adds far-future timers (the wheel's overflow heap) and
/// past-stamped schedule_at calls (the clamp) to the near-cadence mix.
ChildPlan plan_child(std::uint64_t token, netsim::SimTime now,
                     bool far_and_past) {
  const std::uint64_t h = mix64(token);
  const std::uint64_t r = h >> 16;
  switch ((h >> 8) % (far_and_past ? 8 : 4)) {
    case 0:
      return {true, 0};
    case 1:
    case 2:
      return {true, r % 64};
    case 3:
      return {false, now + r % 900};
    case 4:
      return {true, 1024 + r % 60000};
    case 5:
      return {false, now - std::min<netsim::SimTime>(now, r % 200)};
    case 6:
      return {false, now + 100000 + r % 100000};
    default:
      return {true, r % 4};
  }
}

/// Drives a Simulator through a self-expanding random event program and
/// checks every fired (time, token), the clock after each bounded run,
/// and the pending, executed and clamped counts against a std::multimap
/// model of the kernel's contract: (time, scheduling order) firing, past
/// schedule_at clamped to now, a bounded run advancing the clock to its
/// horizon.
void check_simulator_against_model(std::uint64_t seed, bool far_and_past) {
  using netsim::SimTime;
  constexpr std::uint64_t kBudget = 30000;  // tokens, roots included
  constexpr std::uint64_t kMaxChildren = 4;

  struct World {
    netsim::Simulator sim;
    std::vector<std::pair<SimTime, std::uint64_t>> log;
    std::uint64_t next_token = 0;
    bool far_and_past;
  } world{{}, {}, 0, far_and_past};

  struct Fire {
    World* w;
    std::uint64_t token;
    void operator()() const {
      World& wd = *w;
      wd.log.emplace_back(wd.sim.now(), token);
      const std::uint64_t n = mix64(~token) % kMaxChildren;
      for (std::uint64_t c = 0; c < n && wd.next_token < kBudget; ++c) {
        const std::uint64_t child = wd.next_token++;
        const ChildPlan plan = plan_child(child, wd.sim.now(), wd.far_and_past);
        if (plan.relative) {
          wd.sim.schedule_in(plan.value, Fire{w, child});
        } else {
          wd.sim.schedule_at(plan.value, Fire{w, child});
        }
      }
    }
  };

  // Reference model: key (when, token) — tokens are handed out in
  // scheduling order, so the key order is the contracted firing order.
  std::multimap<std::pair<SimTime, std::uint64_t>, bool> pending;
  std::vector<std::pair<SimTime, std::uint64_t>> model_log;
  SimTime model_now = 0;
  std::uint64_t model_next = 0;
  std::uint64_t model_clamped = 0;
  const auto model_fire = [&](std::uint64_t token) {
    model_log.emplace_back(model_now, token);
    const std::uint64_t n = mix64(~token) % kMaxChildren;
    for (std::uint64_t c = 0; c < n && model_next < kBudget; ++c) {
      const std::uint64_t child = model_next++;
      const ChildPlan plan = plan_child(child, model_now, far_and_past);
      SimTime when = plan.relative ? model_now + plan.value : plan.value;
      if (when < model_now) {
        ++model_clamped;
        when = model_now;
      }
      pending.emplace(std::make_pair(when, child), true);
    }
  };
  const auto model_run = [&](SimTime until) {
    while (!pending.empty() && pending.begin()->first.first <= until) {
      const auto [when, token] = pending.begin()->first;
      pending.erase(pending.begin());
      model_now = when;
      model_fire(token);
    }
    if (until != std::numeric_limits<SimTime>::max() && model_now < until) {
      model_now = until;
    }
  };

  netsim::Rng rng(seed);
  for (int root = 0; root < 64; ++root) {
    const SimTime when = rng.next_below(far_and_past ? 300000 : 2000);
    const std::uint64_t token = world.next_token++;
    world.sim.schedule_at(when, Fire{&world, token});
    pending.emplace(std::make_pair(when, model_next++), true);
  }

  int runs = 0;
  while (world.sim.pending_count() != 0 && runs < 100000) {
    const SimTime until = world.sim.now() + rng.next_below(3000);
    world.sim.run(until);
    model_run(until);
    ++runs;
    ASSERT_EQ(world.sim.now(), model_now) << "after run(" << until << ")";
    ASSERT_EQ(world.sim.pending_count(), pending.size());
    ASSERT_EQ(world.log.size(), model_log.size());
  }
  world.sim.run();
  model_run(std::numeric_limits<SimTime>::max());

  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(world.next_token, kBudget) << "the program ran out early";
  EXPECT_EQ(world.sim.events_executed(), kBudget);
  EXPECT_EQ(world.sim.clamped_events(), model_clamped);
  if (far_and_past) {
    EXPECT_GT(model_clamped, 0u);
  }
  ASSERT_EQ(world.log.size(), model_log.size());
  for (std::size_t i = 0; i < model_log.size(); ++i) {
    ASSERT_EQ(world.log[i], model_log[i]) << "diverged at fired event " << i;
  }
}

TEST(Fuzz, SimulatorMatchesReferenceModelOnNearCadences) {
  check_simulator_against_model(11, /*far_and_past=*/false);
}

TEST(Fuzz, SimulatorMatchesReferenceModelWithFarTimersAndClamps) {
  check_simulator_against_model(12, /*far_and_past=*/true);
}

}  // namespace
}  // namespace ddpm
