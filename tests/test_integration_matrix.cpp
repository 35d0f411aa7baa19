// Broad integration coverage: the full detect->identify->block pipeline
// across the topology x scheme x router matrix, with per-cell sanity
// invariants (conservation, pipeline causality) and the scheme-specific
// quality expectations where they are unconditional.
#include <gtest/gtest.h>

#include <tuple>

#include "core/sis.hpp"

namespace ddpm::core {
namespace {

using Param = std::tuple<const char* /*topology*/, const char* /*scheme*/,
                         const char* /*router*/>;

class PipelineMatrix : public ::testing::TestWithParam<Param> {
 protected:
  ScenarioConfig config() const {
    ScenarioConfig c;
    c.cluster.topology = std::get<0>(GetParam());
    c.cluster.scheme = std::get<1>(GetParam());
    c.cluster.router = std::get<2>(GetParam());
    c.cluster.benign_rate_per_node = 0.0002;
    c.cluster.seed = 77;
    c.identifier = std::get<1>(GetParam());
    c.detect_rate_threshold = 0.004;
    c.duration = 250000;
    c.attack.kind = attack::AttackKind::kUdpFlood;
    const auto probe = topo::make_topology(c.cluster.topology);
    c.attack.victim = probe->num_nodes() - 1;
    netsim::Rng rng(5);
    c.attack.zombies = attack::pick_zombies(*probe, 3, c.attack.victim, rng);
    c.attack.rate_per_zombie = 0.008;
    c.attack.start_time = 20000;
    return c;
  }
};

TEST_P(PipelineMatrix, RunsAndHoldsInvariants) {
  SourceIdentificationSystem system(config());
  const ScenarioReport report = system.run();
  const auto& m = report.metrics;

  // Conservation: every injected packet is delivered, dropped, or still in
  // flight (bounded by a small residue).
  EXPECT_LE(m.delivered() + m.dropped(), m.injected());
  EXPECT_GE(m.delivered() + m.dropped() + 200, m.injected());

  // The flood is loud enough to detect on every substrate.
  ASSERT_TRUE(report.detection_time.has_value());
  EXPECT_GE(*report.detection_time, 20000u);

  // Causality: blocks can only exist if something was identified, and
  // every blocked node was named first.
  EXPECT_EQ(report.blocked_sources, report.identified_sources);
  EXPECT_EQ(report.true_positives + report.false_positives,
            report.identified_sources.size());

  // Latency sanity.
  if (m.delivered_benign > 0) {
    EXPECT_GT(m.latency_benign.mean(), 0.0);
    EXPECT_LE(m.latency_benign.mean(), m.latency_benign.max());
    EXPECT_GE(m.latency_benign_p99.value(), m.latency_benign.mean() * 0.5);
  }
}

/// The DDPM quality expectation holds only for DDPM, so it runs over the
/// DDPM cells alone rather than skipping every other scheme's cells.
class DdpmPipelineMatrix : public PipelineMatrix {};

TEST_P(DdpmPipelineMatrix, DdpmCellsArePerfect) {
  SourceIdentificationSystem system(config());
  const ScenarioReport report = system.run();
  EXPECT_EQ(report.true_positives, 3u);
  EXPECT_EQ(report.false_positives, 0u);
  EXPECT_LE(report.packets_to_first_identification, 1u);
}

const char* const kTopologies[] = {"mesh:6x6", "torus:5x5", "hypercube:5"};
const char* const kRouters[] = {"dor", "adaptive"};

INSTANTIATE_TEST_SUITE_P(
    Matrix, PipelineMatrix,
    ::testing::Combine(::testing::ValuesIn(kTopologies),
                       ::testing::Values("ddpm", "dpm", "ppm-full",
                                         "ppm-fragment"),
                       ::testing::ValuesIn(kRouters)));

INSTANTIATE_TEST_SUITE_P(Matrix, DdpmPipelineMatrix,
                         ::testing::Combine(::testing::ValuesIn(kTopologies),
                                            ::testing::Values("ddpm"),
                                            ::testing::ValuesIn(kRouters)));

}  // namespace
}  // namespace ddpm::core
