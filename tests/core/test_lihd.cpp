// Unit tests of the LIHD decision rule (the paper's Figure 6 pseudo-code)
// via LihdController::step, plus live-controller wiring checks.
#include <gtest/gtest.h>

#include "core/lihd.hpp"
#include "exp/swarm.hpp"

namespace wp2p::core {
namespace {

// A controller needs a client; build a minimal idle one.
struct LihdTest : ::testing::Test {
  exp::World world{99};
  bt::Tracker tracker{world.sim};
  bt::Metainfo meta = bt::Metainfo::create("f", 1 << 20, 256 * 1024);
  exp::World::Host& host = world.add_wired_host("h");
  bt::Client client{*host.node, *host.stack, tracker, meta, {}, false};

  LihdConfig config;
  std::unique_ptr<LihdController> make() {
    return std::make_unique<LihdController>(world.sim, client, config);
  }

  static util::Rate kb(double v) { return util::Rate::kBps(v); }
};

TEST_F(LihdTest, StartsAtHalfOfUmax) {
  config.max_upload = kb(200);
  auto lihd = make();
  EXPECT_DOUBLE_EQ(lihd->current_limit().kilobytes_per_sec(), 100.0);
}

TEST_F(LihdTest, FirstSampleOnlySeedsHistory) {
  auto lihd = make();
  const double before = lihd->current_limit().kilobytes_per_sec();
  lihd->step(kb(50));  // Dprev == 0: no adjustment (paper: "If Dprev <> 0")
  EXPECT_DOUBLE_EQ(lihd->current_limit().kilobytes_per_sec(), before);
}

TEST_F(LihdTest, IncreasesLinearlyWhileDownloadsImprove) {
  config.alpha = kb(10);
  config.max_upload = kb(200);
  auto lihd = make();
  lihd->step(kb(10));
  lihd->step(kb(20));  // improved: +alpha
  EXPECT_DOUBLE_EQ(lihd->current_limit().kilobytes_per_sec(), 110.0);
  lihd->step(kb(30));  // improved again: +alpha (still linear)
  EXPECT_DOUBLE_EQ(lihd->current_limit().kilobytes_per_sec(), 120.0);
}

TEST_F(LihdTest, DecreasesWithGrowingAggressiveness) {
  config.beta = kb(10);
  config.max_upload = kb(200);
  auto lihd = make();
  lihd->step(kb(50));
  lihd->step(kb(40));  // worse: -beta*1
  EXPECT_DOUBLE_EQ(lihd->current_limit().kilobytes_per_sec(), 90.0);
  lihd->step(kb(40));  // not improving: -beta*2
  EXPECT_DOUBLE_EQ(lihd->current_limit().kilobytes_per_sec(), 70.0);
  lihd->step(kb(40));  // -beta*3
  EXPECT_DOUBLE_EQ(lihd->current_limit().kilobytes_per_sec(), 40.0);
}

TEST_F(LihdTest, ImprovementResetsDecreaseHistory) {
  config.alpha = kb(10);
  config.beta = kb(10);
  auto lihd = make();
  lihd->step(kb(50));
  lihd->step(kb(40));  // -10
  lihd->step(kb(45));  // improved: +10, history reset
  lihd->step(kb(44));  // worse: -beta*1 (not -beta*3)
  EXPECT_DOUBLE_EQ(lihd->current_limit().kilobytes_per_sec(), 90.0);
}

TEST_F(LihdTest, ClampsToBounds) {
  config.alpha = kb(500);
  config.beta = kb(500);
  config.max_upload = kb(200);
  auto lihd = make();
  lihd->step(kb(10));
  lihd->step(kb(20));  // +500 clamped to 200
  EXPECT_DOUBLE_EQ(lihd->current_limit().kilobytes_per_sec(), 200.0);
  lihd->step(kb(15));  // -500 clamped to kMinUpload, 5
  EXPECT_DOUBLE_EQ(lihd->current_limit().kilobytes_per_sec(), 5.0);
}

// Paper-faithful edge case (Figure 6): the decrease branch fires whenever
// Dprev >= Dcur, INCLUDING Dprev == Dcur. A download pegged at a constant
// rate — e.g. saturating the link no matter what the upload limit does —
// therefore walks the limit down forever with growing aggressiveness; the
// min_upload clamp is the only guard. The trace stream documents each
// decision, so this behavior is pinned observably rather than inferred.
TEST_F(LihdTest, EqualRatesWalkLimitToMinUploadFloor) {
  config.alpha = kb(10);
  config.beta = kb(10);
  config.max_upload = kb(200);
  trace::Recorder& recorder = world.enable_tracing();
  auto lihd = make();

  lihd->step(kb(80));  // seed history
  // d_prev_ == d_cur on every subsequent step: "no improvement" forever.
  for (int i = 0; i < 10; ++i) lihd->step(kb(80));
  EXPECT_DOUBLE_EQ(lihd->current_limit().kilobytes_per_sec(), 5.0);
  lihd->step(kb(80));  // pinned at the floor, still decreasing in spirit
  EXPECT_DOUBLE_EQ(lihd->current_limit().kilobytes_per_sec(), 5.0);

  // The trace agrees: after the seed step, every decision is a decrease with
  // a monotonically growing dec_count, and the limit never dips below min.
  int decreases = 0;
  double last_dec_count = 0.0;
  for (const trace::TraceEvent& ev : recorder.ring().events()) {
    if (ev.kind != trace::Kind::kLihdStep) continue;
    EXPECT_GE(ev.field("limit"), ev.field("min") - 1e-9);
    if (ev.aux == "decrease") {
      ++decreases;
      EXPECT_GT(ev.field("dec_count"), last_dec_count);
      last_dec_count = ev.field("dec_count");
    } else {
      EXPECT_EQ(ev.aux, "seed");  // only the history-seeding first step
    }
  }
  EXPECT_EQ(decreases, 11);
}

TEST_F(LihdTest, StartAppliesLimitToClient) {
  config.max_upload = kb(200);
  auto lihd = make();
  lihd->start();
  EXPECT_DOUBLE_EQ(client.upload_limit().kilobytes_per_sec(), 100.0);
  lihd->stop();
}

TEST_F(LihdTest, PeriodicUpdatesRunWhileStarted) {
  auto lihd = make();  // one update per kInterval, 5 s
  lihd->start();
  world.sim.run_until(sim::seconds(26.0));
  EXPECT_EQ(lihd->updates(), 5u);
  lihd->stop();
  world.sim.run_until(sim::seconds(60.0));
  EXPECT_EQ(lihd->updates(), 5u);
}

}  // namespace
}  // namespace wp2p::core
