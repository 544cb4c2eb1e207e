#include "bt/tracker.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "walking_tracker.hpp"

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

// bt::Tracker keeps each swarm's iteration order instead of walking the swarm
// for every selection. Driven through the same announces from simulators with
// one seed, it must answer exactly as the walking tracker does: same peers in
// the same order, through inserts with and without rehashes, erases by
// kStopped and by sweeps, refreshes, outages, and stale entries that sit in a
// large swarm between amortized sweeps.
TEST(TrackerOracle, SelectionsMatchTheWalkingTracker) {
  constexpr std::uint64_t kSeed = 11;
  sim::Simulator sim_a{kSeed};
  sim::Simulator sim_b{kSeed};
  Tracker kept{sim_a};
  WalkingTracker walking{sim_b};
  std::vector<AnnounceResult> kept_answers;
  std::vector<AnnounceResult> walking_answers;

  constexpr InfoHash kBig = 0xabc;    // grows to ~3,000 entries
  constexpr InfoHash kSmall = 0xdef;  // stays under the amortized-sweep threshold
  constexpr sim::SimTime kTtl = sim::minutes(45.0);
  sim::Rng drive{kSeed + 1};
  PeerId next_id = 1;  // the id pool is [1, next_id)
  bool reachable = true;

  const auto check_swarms = [&] {
    for (const InfoHash hash : {kBig, kSmall}) {
      ASSERT_EQ(kept.swarm_size(hash), walking.swarm_size(hash)) << "at " << sim_a.now();
      ASSERT_EQ(kept.seed_count(hash), walking.seed_count(hash)) << "at " << sim_a.now();
    }
  };

  constexpr int kSteps = 10'000;
  for (int step = 0; step < kSteps; ++step) {
    const bool growing = step < kSteps / 2;
    const double action = drive.uniform();
    if (action < (growing ? 0.02 : 0.04)) {
      // Seconds while the swarm grows. Afterwards, steps of up to a minute
      // spread the refresh times, so entries keep going stale between the
      // amortized sweeps; steps past kTtl / 8 make the next announce sweep,
      // and steps past kTtl expire the whole swarm.
      const auto upto = [&](sim::SimTime t) {
        return static_cast<sim::SimTime>(drive.below(static_cast<std::uint64_t>(t)));
      };
      const double kind = drive.uniform();
      sim::SimTime dt = upto(sim::seconds(5.0));
      if (!growing && kind < 0.92) {
        dt = upto(sim::minutes(1.0));
      } else if (!growing && kind < 0.99) {
        dt = kTtl / 8 + upto(kTtl / 8);
      } else if (!growing) {
        dt = kTtl + upto(kTtl / 8);
      }
      sim_a.run_until(sim_a.now() + dt);
      sim_b.run_until(sim_b.now() + dt);
      continue;
    }
    if (action < 0.05) {
      // About a fifth of the announces fall in outages of ~100 steps.
      if (reachable ? drive.uniform() < 0.1 : drive.uniform() < 0.3) reachable = !reachable;
      kept.set_reachable(reachable);
      walking.set_reachable(reachable);
      continue;
    }

    AnnounceRequest request;
    request.info_hash = drive.uniform() < 0.1 ? kSmall : kBig;
    const bool fresh = next_id == 1 || drive.uniform() < (growing ? 0.6 : 0.1);
    if (request.info_hash == kSmall) {
      request.peer_id = 1 + drive.below(200);
    } else {
      request.peer_id = fresh ? next_id++ : 1 + drive.below(next_id - 1);
    }
    // An endpoint that changes between announces shows whether a refresh
    // reaches the kept order.
    request.endpoint = {net::IpAddr{static_cast<std::uint32_t>(request.peer_id * 4 +
                                                               drive.below(4))},
                        6881};
    request.seed = drive.uniform() < 0.2;
    const double event = drive.uniform();
    request.event = event < 0.05   ? AnnounceEvent::kStopped
                    : event < 0.1  ? AnnounceEvent::kCompleted
                    : event < 0.3  ? AnnounceEvent::kStarted
                                   : AnnounceEvent::kInterval;
    if (request.event == AnnounceEvent::kStopped && drive.uniform() < 0.2) {
      request.peer_id = next_id + 1 + drive.below(100);  // never announced
    }
    if (drive.uniform() < 0.3) {
      kept.announce(request, [&](AnnounceResult r) { kept_answers.push_back(std::move(r)); });
      walking.announce(request,
                       [&](AnnounceResult r) { walking_answers.push_back(std::move(r)); });
    } else {
      // Flyweight peers announce without a callback: no selection is drawn.
      kept.announce(request, nullptr);
      walking.announce(request, nullptr);
    }
    if (step % 100 == 0) {
      check_swarms();
      if (HasFatalFailure()) return;
    }
  }
  sim_a.run();
  sim_b.run();
  check_swarms();

  ASSERT_EQ(kept_answers.size(), walking_answers.size());
  EXPECT_GT(next_id, 3'000u);
  std::size_t full_answers = 0;
  for (std::size_t i = 0; i < kept_answers.size(); ++i) {
    const AnnounceResult& a = kept_answers[i];
    const AnnounceResult& b = walking_answers[i];
    ASSERT_EQ(a.ok, b.ok) << "answer " << i;
    ASSERT_EQ(a.peers.size(), b.peers.size()) << "answer " << i;
    for (std::size_t p = 0; p < a.peers.size(); ++p) {
      ASSERT_EQ(net::to_string(a.peers[p].endpoint), net::to_string(b.peers[p].endpoint))
          << "answer " << i << " peer " << p;
      ASSERT_EQ(a.peers[p].peer_id, b.peers[p].peer_id) << "answer " << i << " peer " << p;
      ASSERT_EQ(a.peers[p].seed, b.peers[p].seed) << "answer " << i << " peer " << p;
    }
    full_answers += a.peers.size() == 50 ? 1 : 0;
  }
  EXPECT_GT(full_answers, 1'000u);  // most answers came from a sampled swarm
  EXPECT_EQ(kept.stats().announces, walking.stats().announces);
  EXPECT_EQ(kept.stats().dropped_announces, walking.stats().dropped_announces);
}

}  // namespace
}  // namespace wp2p::bt
