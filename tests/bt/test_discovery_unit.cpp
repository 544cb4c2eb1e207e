// bt::Discovery on its own: the announce retry chain read from the
// component, its reset after a success, tier failover and probe failback,
// and the room and duplicate checks in front of every dial.
#include <gtest/gtest.h>

#include <vector>

#include "bt/discovery.hpp"
#include "client_context_fixture.hpp"

namespace wp2p::bt {
namespace {

struct DiscoveryUnit : testing::ClientContextFixture {
  Tracker primary{world.sim};
  Tracker backup{world.sim};
  std::vector<net::Endpoint> dials;
  Enforcer enforcer{ctx, [](PeerId) {}};

  Discovery make() {
    return Discovery{ctx, primary, enforcer, [this](net::Endpoint ep) { dials.push_back(ep); }};
  }

  // Runs until the retry chain schedules its next attempt; returns false if
  // none comes within `limit_s`.
  bool next_retry(const Discovery& discovery, double limit_s = 120.0) {
    const int attempt = discovery.retry_chain().attempt;
    for (double t = 0; t < limit_s; t += 0.05) {
      run_for(0.05);
      if (discovery.retry_chain().attempt != attempt) return true;
    }
    return false;
  }
};

TEST_F(DiscoveryUnit, RetryChainDoublesToTheCapWithBoundedJitter) {
  primary.set_reachable(false);
  Discovery discovery = make();
  discovery.announce(AnnounceEvent::kStarted);
  const std::vector<double> bases{2, 4, 8, 16, 30, 30};
  for (std::size_t i = 0; i < bases.size(); ++i) {
    ASSERT_TRUE(next_retry(discovery)) << "attempt " << i + 1;
    const Discovery::RetryChain& chain = discovery.retry_chain();
    EXPECT_EQ(chain.attempt, static_cast<int>(i) + 1);
    EXPECT_EQ(chain.base, sim::seconds(bases[i]));
    EXPECT_GE(sim::to_seconds(chain.delay), 0.75 * bases[i]) << "attempt " << i + 1;
    EXPECT_LE(sim::to_seconds(chain.delay), 1.25 * bases[i]) << "attempt " << i + 1;
  }
  EXPECT_EQ(stats.announce_failures, bases.size());
  EXPECT_EQ(stats.announce_retries, bases.size() - 1);
}

TEST_F(DiscoveryUnit, RetryChainRestartsAfterASuccess) {
  primary.set_reachable(false);
  Discovery discovery = make();
  discovery.announce(AnnounceEvent::kStarted);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(next_retry(discovery));
  ASSERT_EQ(discovery.retry_chain().attempt, 3);
  primary.set_reachable(true);
  run_for(15.0);  // the pending retry fires and succeeds
  EXPECT_EQ(discovery.retry_chain().attempt, 0);
  EXPECT_EQ(discovery.retry_chain().base, 0);
  EXPECT_EQ(discovery.retry_chain().event, sim::kInvalidEventId);

  primary.set_reachable(false);
  discovery.announce(AnnounceEvent::kInterval);
  ASSERT_TRUE(next_retry(discovery));
  EXPECT_EQ(discovery.retry_chain().attempt, 1);
  EXPECT_EQ(discovery.retry_chain().base, sim::seconds(2.0));
}

TEST_F(DiscoveryUnit, FailsOverToTheNextTierAndProbesBackToThePrimary) {
  Discovery discovery = make();
  discovery.add_tracker(backup, 1);
  ASSERT_EQ(discovery.tracker_count(), 2u);
  primary.set_reachable(false);
  discovery.announce(AnnounceEvent::kStarted);
  run_for(4.0);  // the primary times out: the cursor moves to the backup
  EXPECT_EQ(discovery.tracker_cursor(), 1u);
  EXPECT_EQ(stats.tracker_failovers, 1u);
  run_for(5.0);  // the retry reaches the backup
  EXPECT_EQ(backup.stats().announces, 1u);
  EXPECT_EQ(discovery.retry_chain().attempt, 0);
  EXPECT_EQ(discovery.tracker_cursor(), 1u);

  run_for(60.0);  // the probe finds the primary still dark: no failback
  EXPECT_EQ(discovery.tracker_cursor(), 1u);
  EXPECT_EQ(stats.tracker_failbacks, 0u);
  primary.set_reachable(true);
  run_for(60.0);  // the next probe answers
  EXPECT_EQ(discovery.tracker_cursor(), 0u);
  EXPECT_EQ(stats.tracker_failbacks, 1u);
  const std::uint64_t announces = primary.stats().announces;
  run_for(120.0);  // home again, the probe has stopped
  EXPECT_EQ(primary.stats().announces, announces);
}

TEST_F(DiscoveryUnit, RedialSkipsConnectedEndpointsAndStopsWhenFull) {
  config.max_peers = 2;
  Discovery discovery = make();
  add_peer(0xa, 7000);
  const net::Endpoint connected = peers.front()->remote_endpoint();
  const net::Endpoint fresh{remote.node->address(), 7001};
  discovery.redial({connected, fresh});
  EXPECT_EQ(dials, std::vector<net::Endpoint>{fresh});
  add_peer(0xb, 7002);
  discovery.redial({{remote.node->address(), 7003}});
  EXPECT_EQ(dials.size(), 1u);  // the table is full
}

TEST_F(DiscoveryUnit, BanForgetsBootstrapEntryAndRedialsSkipBannedIdentities) {
  Discovery discovery = make();
  const net::Endpoint a_listen = add_peer(0xa, 7000).remote_endpoint();
  discovery.learn(0xa, a_listen);
  discovery.learn(0xb, {remote.node->address(), 7001});
  discovery.record_good_peer(*peers.front());
  ASSERT_EQ(discovery.bootstrap_cache().size(), 1u);
  peers.clear();  // both are disconnected now
  for (int i = 0; i < 3; ++i) enforcer.strike(0xb, -1);
  ASSERT_TRUE(enforcer.is_banned(0xb));
  discovery.forget(0xa);
  EXPECT_EQ(discovery.bootstrap_cache().size(), 0u);
  discovery.redial_known();
  EXPECT_EQ(dials, std::vector<net::Endpoint>{a_listen});
}

}  // namespace
}  // namespace wp2p::bt
