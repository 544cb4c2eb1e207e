#include "util/ring.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "sim/rng.hpp"

namespace wp2p::util {
namespace {

TEST(Ring, EmptyRingHoldsNothing) {
  Ring<int> r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
  r.clear();
  r.erase_if([](int) { return true; });
  EXPECT_TRUE(r.empty());
}

TEST(Ring, KeepsFifoOrderAcrossWrapAndGrowth) {
  // Random pushes and pops against std::deque: the head wraps around the
  // ring, and pushes into a full ring grow it mid-wrap.
  sim::Rng rng{11};
  Ring<int> r;
  std::deque<int> want;
  int next = 0;
  for (int step = 0; step < 20000; ++step) {
    if (rng.uniform() < 0.55) {
      r.push_back(next);
      want.push_back(next++);
    } else if (!want.empty()) {
      ASSERT_EQ(r.pop_front(), want.front());
      want.pop_front();
    }
    ASSERT_EQ(r.size(), want.size());
    if (!want.empty()) {
      ASSERT_EQ(r.front(), want.front());
      ASSERT_EQ(r.back(), want.back());
    }
  }
  EXPECT_GT(want.size(), 1000u);
}

TEST(Ring, WrapsWithinItsSlotLimit) {
  // A ring capped at 5 slots keeps FIFO order as its head wraps inside them.
  Ring<int> r{5};
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 50; ++round) {
    while (r.size() < 5) r.push_back(next_in++);
    for (int i = 0; i <= round % 5; ++i) ASSERT_EQ(r.pop_front(), next_out++);
  }
}

TEST(RingDeathTest, PushPastTheSlotLimitAsserts) {
  Ring<int> r{2};
  r.push_back(1);
  r.push_back(2);
  EXPECT_DEATH(r.push_back(3), "slot limit");
}

TEST(Ring, EraseIfKeepsOrderAcrossTheWrap) {
  Ring<int> r;
  for (int i = 0; i < 8; ++i) r.push_back(i);
  for (int i = 0; i < 5; ++i) r.pop_front();
  for (int i = 8; i < 13; ++i) r.push_back(i);  // 5..12, wrapped in 8 slots
  r.erase_if([](int v) { return v % 3 == 0; });  // 6, 9, 12
  std::deque<int> left;
  while (!r.empty()) left.push_back(r.pop_front());
  EXPECT_EQ(left, (std::deque<int>{5, 7, 8, 10, 11}));
}

TEST(Ring, EraseIfAndClearReleaseWhatTheyDrop) {
  const auto held = std::make_shared<int>(0);
  Ring<std::shared_ptr<int>> r;
  for (int i = 0; i < 6; ++i) r.push_back(i % 2 == 0 ? held : std::make_shared<int>(i));
  EXPECT_EQ(held.use_count(), 4);
  r.erase_if([&](const std::shared_ptr<int>& p) { return p == held; });
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(*r.front(), 1);
  EXPECT_EQ(*r.back(), 5);
  r.push_back(held);
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(held.use_count(), 1);
  r.push_back(held);
  EXPECT_EQ(r.pop_front(), held);
  EXPECT_EQ(held.use_count(), 1);
}

}  // namespace
}  // namespace wp2p::util
