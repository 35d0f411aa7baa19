#include "core/slab.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ddpm::core {
namespace {

TEST(Slab, AcquireHandsOutDenseHandlesAndReusesTheLastReleased) {
  Slab<std::string> slab;
  const auto a = slab.acquire("a");
  const auto b = slab.acquire("b");
  const auto c = slab.acquire("c");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);

  slab.release(a);
  slab.release(c);
  EXPECT_EQ(slab.acquire("d"), c);  // most recently released first
  EXPECT_EQ(slab.acquire("e"), a);
  EXPECT_EQ(slab.acquire("f"), 3u);  // freelist empty: the slab grows
  EXPECT_EQ(slab[a], "e");
  EXPECT_EQ(slab[b], "b");
  EXPECT_EQ(slab[c], "d");
}

TEST(Slab, TakeMovesTheObjectOutAndFreesItsSlot) {
  Slab<std::vector<int>> slab;
  const auto h = slab.acquire(std::vector<int>{1, 2, 3});
  const std::vector<int> out = slab.take(h);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  // The freed slot is the next one handed out.
  EXPECT_EQ(slab.acquire(std::vector<int>{4}), h);
  EXPECT_EQ(slab[h], std::vector<int>{4});
}

TEST(Slab, HandlesSurviveGrowth) {
  Slab<int> slab;
  slab.reserve(2);
  std::vector<Slab<int>::Handle> handles;
  for (int i = 0; i < 1000; ++i) handles.push_back(slab.acquire(int{i}));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(handles[std::size_t(i)], Slab<int>::Handle(i));
    EXPECT_EQ(slab[handles[std::size_t(i)]], i);
  }
}

}  // namespace
}  // namespace ddpm::core
