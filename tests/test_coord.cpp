#include "topology/coord.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace ddpm::topo {
namespace {

TEST(Coord, DefaultIsEmpty) {
  Coord c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.size(), 0u);
}

TEST(Coord, DimensionConstructorZeroes) {
  auto c = Coord(std::size_t(4));
  EXPECT_EQ(c.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(c[i], 0);
}

TEST(Coord, InitializerList) {
  Coord c{1, -2, 3};
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], 1);
  EXPECT_EQ(c[1], -2);
  EXPECT_EQ(c[2], 3);
}

TEST(Coord, EqualityRequiresSameDimsAndValues) {
  EXPECT_EQ((Coord{1, 2}), (Coord{1, 2}));
  EXPECT_NE((Coord{1, 2}), (Coord{1, 3}));
  EXPECT_NE((Coord{1, 2}), (Coord{1, 2, 0}));
}

TEST(Coord, Arithmetic) {
  const Coord a{3, 5};
  const Coord b{1, 7};
  EXPECT_EQ(a + b, (Coord{4, 12}));
  EXPECT_EQ(a - b, (Coord{2, -2}));
  EXPECT_EQ((Coord{1, 0, 1} ^ Coord{1, 1, 0}), (Coord{0, 1, 1}));
}

TEST(Coord, ArithmeticDimMismatchThrows) {
  EXPECT_THROW((void)(Coord{1, 2} + Coord{1}), std::invalid_argument);
  EXPECT_THROW((void)(Coord{1, 2} - Coord{1, 2, 3}), std::invalid_argument);
}

TEST(Coord, Norms) {
  EXPECT_EQ((Coord{3, -4, 0}).l1_norm(), 7);
  EXPECT_EQ((Coord{3, -4, 0}).nonzero_count(), 2);
  EXPECT_EQ((Coord{0, 0}).l1_norm(), 0);
}

TEST(Coord, AtThrowsOutOfRange) {
  const Coord c{1, 2};
  EXPECT_EQ(c.at(1), 2);
  EXPECT_THROW(c.at(2), std::out_of_range);
}

TEST(Coord, TooManyDimsThrows) {
  EXPECT_THROW(Coord(std::size_t(17)), std::invalid_argument);
  EXPECT_NO_THROW(Coord(std::size_t(16)));
}

TEST(Coord, ToString) {
  EXPECT_EQ((Coord{1, -2}).to_string(), "(1,-2)");
  EXPECT_EQ(Coord{}.to_string(), "()");
}

TEST(Coord, HashDistinguishesValuesAndDims) {
  std::unordered_set<std::size_t> hashes;
  hashes.insert((Coord{0, 0}).hash());
  hashes.insert((Coord{0, 1}).hash());
  hashes.insert((Coord{1, 0}).hash());
  hashes.insert((Coord{0, 0, 0}).hash());
  hashes.insert((Coord{-1, 0}).hash());
  EXPECT_EQ(hashes.size(), 5u);
}

TEST(Coord, UsableAsUnorderedMapKey) {
  std::unordered_set<Coord, CoordHash> set;
  set.insert(Coord{1, 2});
  set.insert(Coord{1, 2});
  set.insert(Coord{2, 1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(RingShortestDelta, MatchesTheModularFormulaExhaustively) {
  // The division-free helper against the modular formula it replaced,
  // kept here as the oracle, over every ring size up to 64 and every
  // coordinate pair in [0, k).
  const auto oracle = [](int a, int b, int k) {
    const int delta = ((b - a) % k + k) % k;
    return delta > k / 2 ? delta - k : delta;
  };
  for (int k = 1; k <= 64; ++k) {
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) {
        ASSERT_EQ(ring_shortest_delta(a, b, k), oracle(a, b, k))
            << "k=" << k << " a=" << a << " b=" << b;
      }
    }
  }
  static_assert(ring_shortest_delta(0, 4, 8) == 4, "ties go positive");
  static_assert(ring_shortest_delta(0, 6, 8) == -2, "wrap is shorter");
}

}  // namespace
}  // namespace ddpm::topo
