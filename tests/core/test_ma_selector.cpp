#include "core/ma_selector.hpp"

#include <gtest/gtest.h>

namespace wp2p::core {
namespace {

struct MaSelectorTest : ::testing::Test {
  sim::Rng rng{17};
  std::vector<int> availability;

  bt::SelectionContext ctx(const std::vector<int>& candidates, double fraction) {
    return bt::SelectionContext{candidates, availability, fraction, rng};
  }
};

TEST_F(MaSelectorTest, LinearScheduleMatchesFraction) {
  MobilityAwareSelector sel;
  EXPECT_DOUBLE_EQ(sel.rarest_probability(0.0), 0.0);
  EXPECT_DOUBLE_EQ(sel.rarest_probability(0.5), 0.5);
  EXPECT_DOUBLE_EQ(sel.rarest_probability(1.0), 1.0);
  EXPECT_DOUBLE_EQ(sel.rarest_probability(2.0), 1.0);  // clamped
}

TEST_F(MaSelectorTest, QuadraticStaysSelfishLonger) {
  MaConfig config;
  config.schedule = PrSchedule::kQuadratic;
  MobilityAwareSelector sel{config};
  EXPECT_DOUBLE_EQ(sel.rarest_probability(0.5), 0.25);
  MobilityAwareSelector linear;
  EXPECT_LT(sel.rarest_probability(0.3), linear.rarest_probability(0.3));
}

TEST_F(MaSelectorTest, ConstantScheduleIgnoresProgress) {
  MaConfig config;
  config.schedule = PrSchedule::kConstant;
  config.constant_pr = 0.37;
  MobilityAwareSelector sel{config};
  EXPECT_DOUBLE_EQ(sel.rarest_probability(0.0), 0.37);
  EXPECT_DOUBLE_EQ(sel.rarest_probability(0.9), 0.37);
}

TEST_F(MaSelectorTest, InitialPrFloorApplies) {
  MaConfig config;
  config.initial_pr = 0.2;
  MobilityAwareSelector sel{config};
  EXPECT_DOUBLE_EQ(sel.rarest_probability(0.0), 0.2);
  EXPECT_DOUBLE_EQ(sel.rarest_probability(0.5), 0.5);
}

TEST_F(MaSelectorTest, AtZeroProgressPicksSequentially) {
  availability = {9, 9, 1, 9};  // piece 2 is rare, but selfish phase ignores it
  MobilityAwareSelector sel;
  std::vector<int> candidates{0, 1, 2, 3};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sel.pick(ctx(candidates, 0.0)), 0);
  }
  EXPECT_EQ(sel.rarest_picks(), 0u);
}

TEST_F(MaSelectorTest, AtFullProgressPicksRarest) {
  availability = {9, 9, 1, 9};
  MobilityAwareSelector sel;
  std::vector<int> candidates{0, 1, 2, 3};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sel.pick(ctx(candidates, 1.0)), 2);
  }
  EXPECT_EQ(sel.sequential_picks(), 0u);
}

TEST_F(MaSelectorTest, MixesAtIntermediateProgress) {
  availability = {9, 1};
  MobilityAwareSelector sel;
  std::vector<int> candidates{0, 1};
  int rarest = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    if (sel.pick(ctx(candidates, 0.5)) == 1) ++rarest;
  }
  EXPECT_NEAR(static_cast<double>(rarest) / trials, 0.5, 0.05);
}

TEST_F(MaSelectorTest, AlwaysPicksFromCandidates) {
  availability = std::vector<int>(32, 1);
  MobilityAwareSelector sel;
  std::vector<int> candidates{5, 9, 21};
  for (int i = 0; i < 200; ++i) {
    const int pick = sel.pick(ctx(candidates, rng.uniform()));
    EXPECT_TRUE(pick == 5 || pick == 9 || pick == 21);
  }
}

}  // namespace
}  // namespace wp2p::core
