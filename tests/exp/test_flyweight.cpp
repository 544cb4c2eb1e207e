// exp::FlyweightSwarm: background peers must be real enough that a full
// bt::Client can discover them through the tracker, handshake, and complete a
// download against them — and cheap enough that thousands fit in one world.
#include <gtest/gtest.h>

#include "exp/flyweight.hpp"
#include "exp/swarm.hpp"

namespace wp2p {
namespace {

TEST(FlyweightSwarm, ForegroundClientCompletesAgainstFlyweightSeeds) {
  auto meta = bt::Metainfo::create("fly", 512 * 1024, 128 * 1024, "tr", 7);
  exp::Swarm swarm{/*seed=*/7, meta};

  exp::FlyweightSwarm fly{swarm.world, swarm.tracker, meta};
  net::WiredParams aggregator_link;
  // The aggregator's single access link stands in for every flyweight peer's
  // own link: scale capacity with the population it carries.
  aggregator_link.up_capacity = util::Rate::mbps(400.0);
  aggregator_link.down_capacity = util::Rate::mbps(400.0);
  fly.add_host(swarm.world.add_wired_host("agg0", aggregator_link));
  fly.add_peers(12);
  fly.start();

  // One real leech under measurement; announce fast so it learns the
  // flyweight population early.
  bt::ClientConfig config;
  config.announce_interval = sim::seconds(10.0);
  exp::Swarm::Member& leech = swarm.add_wired("leech", /*is_seed=*/false, config);
  swarm.start_all();

  ASSERT_TRUE(swarm.run_until_complete(leech, /*deadline_seconds=*/180.0))
      << "foreground leech did not complete against flyweight peers";
  EXPECT_TRUE(leech.client->store().bitfield().all());
  EXPECT_GT(fly.stats().blocks_served, 0u);
  EXPECT_GT(fly.stats().sessions_accepted, 0u);
  // The tracker sees the whole population, not just the real client.
  EXPECT_GE(swarm.tracker.swarm_size(meta.info_hash), fly.peer_count());
}

TEST(FlyweightSwarm, LeechesProgressToSeedsViaProgressModel) {
  auto meta = bt::Metainfo::create("fly2", 256 * 1024, 64 * 1024, "tr", 9);
  exp::Swarm swarm{/*seed=*/9, meta};

  exp::FlyweightSwarm fly{swarm.world, swarm.tracker, meta};
  fly.add_host(swarm.world.add_wired_host("agg0"));
  fly.add_peers(10);
  fly.start();

  const std::size_t seeds_before = fly.seed_count();
  swarm.run_for(300.0);
  // 4 pieces per leech at a grant with probability 1/4 per 5-s tick, so 80 s
  // on average: everyone is a seed well before 5 minutes are up, and each
  // completion freed its private bitfield.
  EXPECT_LT(seeds_before, fly.peer_count());
  EXPECT_EQ(fly.seed_count(), fly.peer_count());
  EXPECT_GT(fly.stats().pieces_granted, 0u);
}

TEST(FlyweightSwarm, PopulationScalesAcrossHosts) {
  auto meta = bt::Metainfo::create("fly3", 256 * 1024, 128 * 1024, "tr", 11);
  exp::Swarm swarm{/*seed=*/11, meta};

  exp::FlyweightSwarm fly{swarm.world, swarm.tracker, meta};
  fly.add_host(swarm.world.add_wired_host("agg0"));
  fly.add_host(swarm.world.add_wired_host("agg1"));
  fly.add_peers(2000);
  fly.start();
  swarm.run_for(45.0);

  EXPECT_EQ(fly.peer_count(), 2000u);
  // Every peer registered with the tracker (null-callback announces).
  EXPECT_EQ(swarm.tracker.swarm_size(meta.info_hash), 2000u);
  // Shared wheels only: the world is not carrying thousands of live timers.
  EXPECT_LT(swarm.world.sim.queue_entries(), 100u);
}

}  // namespace
}  // namespace wp2p
