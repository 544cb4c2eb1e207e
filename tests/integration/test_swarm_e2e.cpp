// End-to-end swarm scenarios: whole-stack downloads through tracker, choker,
// piece store, TCP, and the access links — the repo's highest-level tests.
#include <gtest/gtest.h>

#include "checked_run.hpp"
#include "exp/faults.hpp"
#include "exp/swarm.hpp"

namespace wp2p {
namespace {

using exp::Swarm;

// A seed and three leechers all reach a full, verified copy.
TEST(SwarmE2E, SeedAndThreeLeechersCompleteAFile) {
  auto meta = bt::Metainfo::create("e2e", 3 * 1024 * 1024, 256 * 1024, "tr", 77);
  Swarm swarm{77, meta};
  testing::CheckedRun checked{swarm.world.sim};
  bt::ClientConfig config;
  config.announce_interval = sim::seconds(30.0);
  swarm.add_wired("seed", true, config);
  for (int i = 0; i < 3; ++i) {
    bt::ClientConfig lc = config;
    lc.listen_port = static_cast<std::uint16_t>(6882 + i);
    swarm.add_wireless("leech" + std::to_string(i), false, lc);
  }
  swarm.start_all();

  for (std::size_t i = 1; i < swarm.members.size(); ++i) {
    ASSERT_TRUE(swarm.run_until_complete(swarm.members[i], 600.0)) << "leech " << i;
    EXPECT_TRUE(swarm.members[i].client->store().bitfield().all());
    EXPECT_EQ(swarm.members[i].client->store().bytes_completed(), meta.total_size);
  }
  EXPECT_TRUE(checked.no_violations());
}

// A wP2P leecher survives a mid-download hand-off: identity (peer id) is
// retained across the re-initiation and the download still completes.
TEST(SwarmE2E, Wp2pLeecherSurvivesMidDownloadHandoff) {
  auto meta = bt::Metainfo::create("e2e-ho", 4 * 1024 * 1024, 256 * 1024, "tr", 78);
  Swarm swarm{78, meta};
  testing::CheckedRun checked{swarm.world.sim};
  bt::ClientConfig config;
  config.announce_interval = sim::seconds(30.0);
  auto& source = swarm.add_wired("seed", true, config);
  source->set_upload_limit(util::Rate::kBps(120.0));  // stretch the download

  bt::ClientConfig mc = config;
  mc.listen_port = 6882;
  mc.retain_peer_id = true;  // wP2P incentive-aware identity retention
  mc.role_reversal = true;
  auto& mobile = swarm.add_wireless("mobile", false, mc);
  swarm.start_all();

  // Let the download get going, then hand off mid-transfer.
  swarm.run_for(20.0);
  const bt::PeerId id_before = mobile->peer_id();
  ASSERT_GT(mobile->stats().payload_downloaded, 0);
  ASSERT_FALSE(mobile->complete());
  mobile.host->node->change_address();

  ASSERT_TRUE(swarm.run_until_complete(mobile, 600.0));
  EXPECT_EQ(mobile->peer_id(), id_before);  // identity survived the hand-off
  EXPECT_GE(mobile->stats().task_reinitiations, 1u);
  EXPECT_EQ(mobile->store().bytes_completed(), meta.total_size);
  EXPECT_TRUE(checked.no_violations());
}

// A default (non-wP2P) leecher also completes after a hand-off — slower, via
// tracker rediscovery — and regenerates its peer id.
TEST(SwarmE2E, DefaultLeecherRecoversViaTrackerAfterHandoff) {
  auto meta = bt::Metainfo::create("e2e-def", 3 * 1024 * 1024, 256 * 1024, "tr", 79);
  Swarm swarm{79, meta};
  testing::CheckedRun checked{swarm.world.sim};
  bt::ClientConfig config;
  config.announce_interval = sim::seconds(20.0);
  auto& source = swarm.add_wired("seed", true, config);
  source->set_upload_limit(util::Rate::kBps(120.0));

  bt::ClientConfig mc = config;
  mc.listen_port = 6882;  // defaults: retain_peer_id = role_reversal = false
  auto& mobile = swarm.add_wireless("mobile", false, mc);
  swarm.start_all();

  swarm.run_for(20.0);
  const bt::PeerId id_before = mobile->peer_id();
  ASSERT_FALSE(mobile->complete());
  mobile.host->node->change_address();

  ASSERT_TRUE(swarm.run_until_complete(mobile, 600.0));
  EXPECT_NE(mobile->peer_id(), id_before);  // default client regenerates
  EXPECT_GE(mobile->stats().task_reinitiations, 1u);
  EXPECT_TRUE(checked.no_violations());
}

// A swarm completes through an injected mid-run fault barrage (flap + BER +
// tracker outage) with conservation intact.
TEST(SwarmE2E, SwarmCompletesThroughFaultBarrage) {
  auto meta = bt::Metainfo::create("e2e-faults", 2 * 1024 * 1024, 256 * 1024, "tr", 80);
  Swarm swarm{80, meta};
  testing::CheckedRun checked{swarm.world.sim};
  bt::ClientConfig config;
  config.announce_interval = sim::seconds(20.0);
  auto& source = swarm.add_wired("seed", true, config);
  source->set_upload_limit(util::Rate::kBps(60.0));  // stretch across the faults
  bt::ClientConfig lc = config;
  lc.listen_port = 6882;
  auto& leech = swarm.add_wireless("mobile", false, lc);

  sim::FaultPlan plan;
  plan.actions = sim::FaultPlan::parse(
                     "fault link-flap at=10 dur=8 mag=0 target=mobile\n"
                     "fault ber at=25 dur=20 mag=1e-5 target=mobile\n"
                     "fault tracker-outage at=30 dur=30 mag=0 target=\n")
                     .actions;
  ASSERT_EQ(plan.actions.size(), 3u);
  auto injector = exp::bind_faults(swarm, plan);
  swarm.start_all();

  ASSERT_TRUE(swarm.run_until_complete(leech, 900.0));
  swarm.run_for(90.0);  // drain any fault still scheduled or active
  EXPECT_EQ(injector->stats().applied, 3u);
  EXPECT_EQ(injector->active_faults(), 0);

  std::int64_t uploaded = 0, downloaded = 0;
  for (auto& member : swarm.members) {
    uploaded += member.client->stats().payload_uploaded;
    downloaded += member.client->stats().payload_downloaded;
  }
  EXPECT_GE(uploaded, downloaded);
  EXPECT_TRUE(checked.no_violations());
}

// A peer-crash window stops the client process and restarts it; the piece
// store survives (disk), and the swarm still completes.
TEST(SwarmE2E, PeerCrashRestartKeepsStoreAndCompletes) {
  auto meta = bt::Metainfo::create("e2e-crash", 2 * 1024 * 1024, 256 * 1024, "tr", 81);
  Swarm swarm{81, meta};
  testing::CheckedRun checked{swarm.world.sim};
  bt::ClientConfig config;
  config.announce_interval = sim::seconds(15.0);
  auto& source = swarm.add_wired("seed", true, config);
  source->set_upload_limit(util::Rate::kBps(100.0));
  bt::ClientConfig lc = config;
  lc.listen_port = 6882;
  auto& leech = swarm.add_wired("victim", false, lc);

  sim::FaultPlan plan;
  plan.actions = sim::FaultPlan::parse("fault peer-crash at=15 dur=20 mag=0 target=victim\n")
                     .actions;
  auto injector = exp::bind_faults(swarm, plan);
  swarm.start_all();

  swarm.run_for(16.0);
  EXPECT_FALSE(leech->running());  // crashed
  const std::int64_t bytes_at_crash = leech->store().bytes_completed();
  EXPECT_GT(bytes_at_crash, 0);

  swarm.run_for(25.0);  // past the restart
  EXPECT_TRUE(leech->running());
  EXPECT_GE(leech->store().bytes_completed(), bytes_at_crash);

  ASSERT_TRUE(swarm.run_until_complete(leech, 900.0));
  EXPECT_EQ(injector->stats().applied, 1u);
  EXPECT_TRUE(checked.no_violations());
}

}  // namespace
}  // namespace wp2p
