#include "bt/tracker.hpp"

#include <gtest/gtest.h>

namespace wp2p::bt {
namespace {

struct TrackerTest : ::testing::Test {
  sim::Simulator sim{5};
  Tracker tracker{sim};

  AnnounceRequest request(PeerId id, bool seed = false,
                          AnnounceEvent event = AnnounceEvent::kStarted) {
    AnnounceRequest r;
    r.info_hash = 0xabc;
    r.endpoint = {net::IpAddr{100 + static_cast<std::uint32_t>(id)}, 6881};
    r.peer_id = id;
    r.seed = seed;
    r.event = event;
    return r;
  }
};

TEST_F(TrackerTest, FirstAnnounceGetsEmptyList) {
  std::vector<TrackerPeerInfo> got;
  bool called = false;
  tracker.announce(request(1), [&](auto res) {
    EXPECT_TRUE(res.ok);
    got = std::move(res.peers);
    called = true;
  });
  sim.run();
  EXPECT_TRUE(called);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(tracker.swarm_size(0xabc), 1u);
}

TEST_F(TrackerTest, ResponseExcludesRequester) {
  tracker.announce(request(1), nullptr);
  tracker.announce(request(2), nullptr);
  std::vector<TrackerPeerInfo> got;
  tracker.announce(request(2), [&](auto res) { got = std::move(res.peers); });
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].peer_id, 1u);
}

TEST_F(TrackerTest, ResponseDelayedByRpcLatency) {
  sim::SimTime answered_at = -1;
  tracker.announce(request(1), [&](auto) { answered_at = sim.now(); });
  sim.run();
  EXPECT_EQ(answered_at, sim::milliseconds(150.0));
}

TEST_F(TrackerTest, CompletedEventMarksSeed) {
  tracker.announce(request(1), nullptr);
  EXPECT_EQ(tracker.seed_count(0xabc), 0u);
  tracker.announce(request(1, false, AnnounceEvent::kCompleted), nullptr);
  EXPECT_EQ(tracker.seed_count(0xabc), 1u);
}

TEST_F(TrackerTest, StoppedRemovesPeer) {
  tracker.announce(request(1), nullptr);
  tracker.announce(request(2), nullptr);
  tracker.announce(request(1, false, AnnounceEvent::kStopped), nullptr);
  EXPECT_EQ(tracker.swarm_size(0xabc), 1u);
}

TEST_F(TrackerTest, ReannounceUpdatesEndpoint) {
  tracker.announce(request(1), nullptr);
  auto moved = request(1);
  moved.endpoint = {net::IpAddr{999}, 6881};
  tracker.announce(moved, nullptr);
  std::vector<TrackerPeerInfo> got;
  tracker.announce(request(2), [&](auto res) { got = std::move(res.peers); });
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].endpoint.addr, net::IpAddr{999});
  EXPECT_EQ(tracker.swarm_size(0xabc), 2u);
}

TEST_F(TrackerTest, CapsReturnedPeers) {
  TrackerConfig config;
  config.max_peers_returned = 10;
  Tracker small{sim, config};
  for (PeerId id = 1; id <= 30; ++id) small.announce(request(id), nullptr);
  std::vector<TrackerPeerInfo> got;
  small.announce(request(99), [&](auto res) { got = std::move(res.peers); });
  sim.run();
  EXPECT_EQ(got.size(), 10u);
}

TEST_F(TrackerTest, StaleEntriesExpire) {
  Tracker t{sim};
  t.announce(request(1), nullptr);
  sim.run_until(sim::minutes(90.0));  // twice the 45-minute entry TTL
  std::vector<TrackerPeerInfo> got{TrackerPeerInfo{}};
  t.announce(request(2), [&](auto res) { got = std::move(res.peers); });
  sim.run();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(t.swarm_size(0xabc), 1u);  // only the fresh announcer remains
}

TEST_F(TrackerTest, UnreachableTrackerReportsFailure) {
  tracker.set_reachable(false);
  bool called = false;
  sim::SimTime failed_at = -1;
  tracker.announce(request(1), [&](auto res) {
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(res.peers.empty());
    failed_at = sim.now();
    called = true;
  });
  sim.run();
  // The callback fires exactly once, after the failure timeout — the announce
  // is never silently swallowed.
  EXPECT_TRUE(called);
  EXPECT_EQ(failed_at, sim::seconds(3.0));
  EXPECT_EQ(tracker.swarm_size(0xabc), 0u);  // no state registered
  EXPECT_EQ(tracker.stats().dropped_announces, 1u);
  EXPECT_EQ(tracker.stats().announces, 0u);
}

TEST_F(TrackerTest, AnnounceSucceedsOnceReachableAgain) {
  tracker.set_reachable(false);
  tracker.announce(request(1), nullptr);  // dropped; nullptr callback is fine
  sim.run();
  tracker.set_reachable(true);
  bool ok = false;
  tracker.announce(request(1), [&](auto res) { ok = res.ok; });
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(tracker.swarm_size(0xabc), 1u);
  EXPECT_EQ(tracker.stats().dropped_announces, 1u);
  EXPECT_EQ(tracker.stats().announces, 1u);
}

TEST_F(TrackerTest, SwarmsAreIndependent) {
  auto r1 = request(1);
  auto r2 = request(2);
  r2.info_hash = 0xdef;
  tracker.announce(r1, nullptr);
  tracker.announce(r2, nullptr);
  EXPECT_EQ(tracker.swarm_size(0xabc), 1u);
  EXPECT_EQ(tracker.swarm_size(0xdef), 1u);
  std::vector<TrackerPeerInfo> got{TrackerPeerInfo{}};
  tracker.announce(request(3), [&](auto res) { got = std::move(res.peers); });
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].peer_id, 1u);
}

}  // namespace
}  // namespace wp2p::bt
