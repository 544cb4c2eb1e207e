// Integration tests of the assembled wP2P client: component wiring, identity
// retention + role reversal across hand-offs, LIHD limit dynamics, AM filter
// activity on live traffic, and mobility-aware fetch behaviour end-to-end.
#include <gtest/gtest.h>

#include "core/wp2p_client.hpp"
#include "exp/swarm.hpp"
#include "media/playability.hpp"

namespace wp2p::core {
namespace {

using exp::Swarm;

bt::Metainfo small_file(std::int64_t size = 4 * 1024 * 1024) {
  return bt::Metainfo::create("media.mpg", size, 256 * 1024, "tracker", 9);
}

bt::ClientConfig fast_config() {
  bt::ClientConfig c;
  c.announce_interval = sim::seconds(30.0);
  return c;
}

struct WP2PTest : ::testing::Test {
  bt::Metainfo meta = small_file();
  Swarm swarm{21, meta};

  std::unique_ptr<WP2PClient> make_mobile(WP2PConfig config = {},
                                          net::WirelessParams wless = {}) {
    config.base.announce_interval = sim::seconds(30.0);
    exp::World::Host& host = swarm.world.add_wireless_host("mobile", wless);
    return std::make_unique<WP2PClient>(*host.node, *host.stack, swarm.tracker, meta,
                                        config);
  }
};

TEST_F(WP2PTest, ComponentsAreWiredPerConfig) {
  auto mobile = make_mobile();
  EXPECT_NE(mobile->am(), nullptr);
  EXPECT_NE(mobile->lihd(), nullptr);
  EXPECT_NE(mobile->ma_selector(), nullptr);
  EXPECT_TRUE(mobile->client().config().retain_peer_id);
  EXPECT_TRUE(mobile->client().config().role_reversal);

  WP2PConfig off;
  off.age_based_manipulation = false;
  off.incentive_aware = false;
  off.mobility_aware = false;
  auto plain = make_mobile(off);
  EXPECT_EQ(plain->am(), nullptr);
  EXPECT_EQ(plain->lihd(), nullptr);
  EXPECT_EQ(plain->ma_selector(), nullptr);
  EXPECT_FALSE(plain->client().config().retain_peer_id);
}

TEST_F(WP2PTest, DownloadsToCompletion) {
  swarm.add_wired("seed", true, fast_config());
  auto mobile = make_mobile();
  swarm.start_all();
  mobile->start();
  const sim::SimTime deadline = sim::seconds(600.0);
  while (swarm.world.sim.now() < deadline && !mobile->client().complete()) {
    swarm.run_for(1.0);
  }
  EXPECT_TRUE(mobile->client().complete());
}

TEST_F(WP2PTest, IdentityRetainedAndRoleReversedOnHandoff) {
  auto& seed = swarm.add_wired("seed", true, fast_config());
  seed->set_upload_limit(util::Rate::kBps(200));
  auto mobile = make_mobile();
  swarm.start_all();
  mobile->start();
  swarm.run_for(20.0);
  const bt::PeerId id = mobile->client().peer_id();
  ASSERT_GT(mobile->client().peer_count(), 0u);

  mobile->client().node().change_address();
  EXPECT_EQ(mobile->client().peer_id(), id);  // IA: identity retained
  swarm.run_for(2.0);
  EXPECT_GT(mobile->client().peer_count(), 0u);  // RR: reconnected instantly
}

TEST_F(WP2PTest, AmFilterSeesTraffic) {
  swarm.add_wired("seed", true, fast_config());
  net::WirelessParams wless;
  wless.bit_error_rate = 2e-6;
  auto mobile = make_mobile({}, wless);
  swarm.start_all();
  mobile->start();
  swarm.run_for(30.0);
  EXPECT_GT(mobile->am()->stats().acks_decoupled, 0u);  // young-phase decoupling ran
}

TEST_F(WP2PTest, LihdStartsAtHalfMaxAndStaysBounded) {
  swarm.add_wired("seed", true, fast_config());
  auto mobile = make_mobile();
  swarm.start_all();
  mobile->start();
  const LihdConfig& lc = mobile->lihd()->config();
  EXPECT_DOUBLE_EQ(mobile->lihd()->current_limit().bytes_per_sec(),
                   (lc.max_upload * 0.5).bytes_per_sec());
  swarm.run_for(120.0);
  EXPECT_GT(mobile->lihd()->updates(), 10u);
  EXPECT_GE(mobile->lihd()->current_limit(), LihdController::kMinUpload);
  EXPECT_LE(mobile->lihd()->current_limit(), lc.max_upload);
  // The client's live upload limit is whatever LIHD last set.
  EXPECT_DOUBLE_EQ(mobile->client().upload_limit().bytes_per_sec(),
                   mobile->lihd()->current_limit().bytes_per_sec());
}

TEST_F(WP2PTest, MobilityAwareFetchKeepsPlayablePrefix) {
  // Compare playability trajectories: wP2P (MF) vs default (rarest-first),
  // each downloading alone from one seed.
  auto run = [&](bool use_wp2p) {
    Swarm s{use_wp2p ? 31u : 32u, meta};
    s.add_wired("seed", true, fast_config());
    media::PlayabilityAnalyzer analyzer;
    if (use_wp2p) {
      exp::World::Host& host = s.world.add_wireless_host("mobile");
      WP2PConfig config;
      config.base.announce_interval = sim::seconds(30.0);
      WP2PClient mobile{*host.node, *host.stack, s.tracker, meta, config};
      mobile.client().on_piece_complete = [&](int) { analyzer.sample(mobile.client().store()); };
      s.start_all();
      mobile.start();
      while (!mobile.client().complete() && s.world.sim.now() < sim::seconds(900.0)) {
        s.run_for(1.0);
      }
      EXPECT_TRUE(mobile.client().complete());
    } else {
      auto& leech = s.add_wireless("mobile", false, fast_config());
      leech->on_piece_complete = [&](int) { analyzer.sample(leech->store()); };
      s.start_all();
      while (!leech->complete() && s.world.sim.now() < sim::seconds(900.0)) {
        s.run_for(1.0);
      }
      EXPECT_TRUE(leech->complete());
    }
    return analyzer.playable_at(0.5);
  };
  const double wp2p_playable = run(true);
  const double default_playable = run(false);
  // The paper (Fig. 9a): ~30% playable at 50% downloaded for MF vs ~5% for
  // rarest-first.
  EXPECT_GT(wp2p_playable, 0.2);
  EXPECT_LT(default_playable, 0.2);
  EXPECT_GT(wp2p_playable, default_playable);
}

}  // namespace
}  // namespace wp2p::core
