#include "bt/selector.hpp"

#include <gtest/gtest.h>

#include <map>

namespace wp2p::bt {
namespace {

struct SelectorTest : ::testing::Test {
  sim::Rng rng{11};
  std::vector<int> availability;

  SelectionContext ctx(const std::vector<int>& candidates, double fraction = 0.0) {
    return SelectionContext{candidates, availability, fraction, rng};
  }
};

TEST_F(SelectorTest, RarestFirstPicksMinimumAvailability) {
  availability = {5, 1, 3, 2};
  RarestFirstSelector sel;
  std::vector<int> candidates{0, 1, 2, 3};
  EXPECT_EQ(sel.pick(ctx(candidates)), 1);
}

TEST_F(SelectorTest, RarestFirstRespectsCandidateSet) {
  availability = {0, 9, 3, 2};
  RarestFirstSelector sel;
  std::vector<int> candidates{1, 2};  // piece 0 is not offered
  EXPECT_EQ(sel.pick(ctx(candidates)), 2);
}

TEST_F(SelectorTest, RarestFirstBreaksTiesUniformly) {
  availability = {1, 1, 1, 1};
  RarestFirstSelector sel;
  std::vector<int> candidates{0, 1, 2, 3};
  std::map<int, int> histogram;
  for (int i = 0; i < 4000; ++i) ++histogram[sel.pick(ctx(candidates))];
  for (int p = 0; p < 4; ++p) {
    EXPECT_GT(histogram[p], 800) << "piece " << p;  // ~1000 expected each
  }
}

TEST_F(SelectorTest, SequentialPicksLowestIndex) {
  availability = {1, 1, 1, 1, 1};
  SequentialSelector sel;
  std::vector<int> candidates{4, 2, 3};
  EXPECT_EQ(sel.pick(ctx(candidates)), 2);
}

TEST_F(SelectorTest, RandomCoversAllCandidates) {
  availability = std::vector<int>(8, 1);
  RandomSelector sel;
  std::vector<int> candidates{1, 3, 5, 7};
  std::map<int, int> histogram;
  for (int i = 0; i < 4000; ++i) ++histogram[sel.pick(ctx(candidates))];
  EXPECT_EQ(histogram.size(), 4u);
  for (auto [piece, hits] : histogram) EXPECT_GT(hits, 800);
}

// Property sweep: every selector must return a member of the candidate set.
class SelectorContract : public ::testing::TestWithParam<int> {};

TEST_P(SelectorContract, AlwaysPicksFromCandidates) {
  sim::Rng rng{static_cast<std::uint64_t>(GetParam())};
  std::unique_ptr<PieceSelector> selectors[] = {
      std::make_unique<RarestFirstSelector>(),
      std::make_unique<SequentialSelector>(),
      std::make_unique<RandomSelector>(),
  };
  std::vector<int> availability(64);
  for (auto& a : availability) a = static_cast<int>(rng.below(10));
  for (int round = 0; round < 100; ++round) {
    std::vector<int> candidates;
    for (int p = 0; p < 64; ++p) {
      if (rng.bernoulli(0.3)) candidates.push_back(p);
    }
    if (candidates.empty()) continue;
    for (auto& sel : selectors) {
      SelectionContext ctx{candidates, availability, rng.uniform(), rng};
      const int pick = sel->pick(ctx);
      EXPECT_NE(std::find(candidates.begin(), candidates.end(), pick), candidates.end())
          << sel->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorContract, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace wp2p::bt
