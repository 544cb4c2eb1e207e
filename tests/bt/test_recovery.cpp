// Client recovery layer: announce retry/backoff, corruption strikes and peer
// banning, and the post-timeout reconnect policy.
#include <gtest/gtest.h>

#include "exp/faults.hpp"
#include "exp/swarm.hpp"
#include "trace/invariant_checker.hpp"
#include "trace/recorder.hpp"

namespace wp2p::bt {
namespace {

using exp::Swarm;

Metainfo small_file(std::int64_t size = 1024 * 1024) {
  return Metainfo::create("recfile", size, 256 * 1024, "tracker", 77);
}

// An announce interval long enough that nothing periodic fires inside a
// test window: any tracker contact is attributable to the recovery layer.
ClientConfig quiet_config(std::uint16_t port = 6881) {
  ClientConfig c;
  c.listen_port = port;
  c.announce_interval = sim::minutes(60.0);
  return c;
}

TEST(Recovery, AnnounceRetryReachesTrackerAfterOutage) {
  Swarm swarm{71, small_file()};
  auto& client = swarm.add_wired("solo", true, quiet_config());
  swarm.tracker.set_reachable(false);
  swarm.start_all();
  // The kStarted announce fails; the backoff chain keeps dialing.
  swarm.run_for(60.0);
  EXPECT_EQ(swarm.tracker.swarm_size(swarm.meta.info_hash), 0u);
  EXPECT_GE(client->stats().announce_failures, 4u);
  EXPECT_GE(client->stats().announce_retries, 3u);
  // Once the tracker returns, the next retry (at most the 30 s cap away)
  // registers the client — no waiting for the hour-long periodic announce.
  swarm.tracker.set_reachable(true);
  swarm.run_for(35.0);
  EXPECT_EQ(swarm.tracker.swarm_size(swarm.meta.info_hash), 1u);
}

TEST(Recovery, WithoutRetryClientStaysDarkUntilPeriodicAnnounce) {
  Swarm swarm{72, small_file()};
  auto config = quiet_config();
  config.announce_retry = false;
  auto& client = swarm.add_wired("solo", true, config);
  swarm.tracker.set_reachable(false);
  swarm.start_all();
  swarm.run_for(60.0);
  swarm.tracker.set_reachable(true);
  swarm.run_for(35.0);
  // The naive client lost its one announce and will not try again for ~1 h.
  EXPECT_EQ(swarm.tracker.swarm_size(swarm.meta.info_hash), 0u);
  EXPECT_EQ(client->stats().announce_retries, 0u);
  EXPECT_EQ(client->stats().announce_failures, 1u);
}

TEST(Recovery, TrackerRecoveryMidChainSucceedsOnNextRetryAndResetsBackoff) {
  // Regression for the flapping tracker: recovery *between* two retries of a
  // grown backoff chain must let the very next retry register the client, and
  // a later outage must start a fresh chain from the initial base — the chain
  // state may not leak across an intervening success.
  trace::Recorder recorder{/*ring_capacity=*/256};
  trace::InvariantChecker checker;
  recorder.add_sink(&checker);
  Swarm swarm{79, small_file()};
  swarm.world.sim.set_tracer(&recorder);
  auto config = quiet_config();
  config.announce_interval = sim::seconds(15.0);  // the second outage is noticed
  auto& client = swarm.add_wired("solo", true, config);
  swarm.tracker.set_reachable(false);
  swarm.start_all();
  swarm.run_for(22.0);  // several retries in: base has doubled past the initial
  ASSERT_EQ(swarm.tracker.swarm_size(swarm.meta.info_hash), 0u);
  ASSERT_GE(client->stats().announce_retries, 2u);

  // The tracker flaps back up mid-chain: the pending retry (at most one grown
  // base away) succeeds without waiting for the periodic announce.
  swarm.tracker.set_reachable(true);
  swarm.run_for(17.0);
  ASSERT_EQ(swarm.tracker.swarm_size(swarm.meta.info_hash), 1u);

  // A second outage: the next failure must open a chain at the initial base.
  swarm.tracker.set_reachable(false);
  swarm.run_for(20.0);
  swarm.world.sim.set_tracer(nullptr);

  double grown_base = 0.0;      // largest base before the success
  bool saw_success = false;
  bool checked_fresh = false;   // first retry after the success
  for (const auto& ev : recorder.ring().events()) {
    if (ev.kind == trace::Kind::kBtAnnounce && ev.field("ok") > 0.5) {
      saw_success = true;
      continue;
    }
    if (ev.kind != trace::Kind::kBtAnnounceRetry) continue;
    if (!saw_success) {
      grown_base = std::max(grown_base, ev.field("base_s"));
    } else if (!checked_fresh) {
      checked_fresh = true;
      EXPECT_EQ(ev.field("attempt"), 1.0);
      EXPECT_EQ(ev.field("base_s"), 2.0);  // kAnnounceRetryInitial
    }
  }
  EXPECT_GE(grown_base, 8.0);
  EXPECT_TRUE(saw_success);
  EXPECT_TRUE(checked_fresh);
  // The shrink back to the initial base is legal exactly because a successful
  // announce separated the chains — the backoff invariant stays clean.
  EXPECT_TRUE(checker.violations().empty())
      << trace::to_string(checker.violations().front());
}

TEST(Recovery, AnnounceBackoffDelaysAreCappedAndMonotone) {
  trace::Recorder recorder{/*ring_capacity=*/256};
  trace::InvariantChecker checker;
  recorder.add_sink(&checker);
  Swarm swarm{73, small_file()};
  swarm.world.sim.set_tracer(&recorder);
  swarm.add_wired("solo", true, quiet_config());
  swarm.tracker.set_reachable(false);
  swarm.start_all();
  swarm.run_for(180.0);
  swarm.world.sim.set_tracer(nullptr);

  // The checker audits the chain live (monotone bases, cap, jitter band).
  EXPECT_TRUE(checker.violations().empty())
      << trace::to_string(checker.violations().front());
  // And the raw events show the base actually climbing to the cap.
  double max_base = 0.0;
  int retries = 0;
  for (const auto& ev : recorder.ring().events()) {
    if (ev.kind != trace::Kind::kBtAnnounceRetry) continue;
    ++retries;
    max_base = std::max(max_base, ev.field("base_s"));
    EXPECT_LE(ev.field("base_s"), ev.field("cap_s") + 1e-9);
  }
  EXPECT_GE(retries, 5);
  EXPECT_DOUBLE_EQ(max_base, 30.0);  // default announce_retry_cap
}

TEST(Recovery, CorruptingSeedIsStruckBannedAndRoutedAround) {
  trace::Recorder recorder{/*ring_capacity=*/4};
  trace::InvariantChecker checker;
  recorder.add_sink(&checker);
  Swarm swarm{74, small_file(2 * 1024 * 1024)};
  swarm.world.sim.set_tracer(&recorder);
  auto config = quiet_config();
  config.announce_interval = sim::seconds(20.0);
  swarm.add_wired("clean", true, config);
  auto& venom = swarm.add_wired("venom", true, quiet_config(6882));
  auto& leech = swarm.add_wired("leech", false, quiet_config(6883));

  sim::FaultPlan plan;
  sim::FaultAction corrupt;
  corrupt.kind = sim::FaultKind::kCorrupt;
  corrupt.at = sim::seconds(0.5);
  corrupt.duration = sim::seconds(110.0);
  corrupt.magnitude = 0.5;
  corrupt.target = "venom";
  plan.actions.push_back(corrupt);
  auto injector = exp::bind_faults(swarm, plan);

  swarm.start_all();
  ASSERT_TRUE(swarm.run_until_complete(leech, 120.0));
  swarm.world.sim.set_tracer(nullptr);

  // The poisoner was detected, struck to the threshold, and banned.
  EXPECT_GE(leech->stats().corrupt_pieces, 3u);
  EXPECT_GE(leech->stats().peer_strikes, 3u);
  EXPECT_EQ(leech->stats().peers_banned, 1u);
  EXPECT_GT(leech->store().wasted_bytes(), 0);
  // Every corrupt piece was reset and cleanly re-downloaded.
  EXPECT_EQ(leech->store().bytes_completed(), swarm.meta.total_size);
  // No requests to the banned peer, every detection reset, backoff sane.
  EXPECT_TRUE(checker.violations().empty())
      << trace::to_string(checker.violations().front());
  (void)venom;
}

TEST(Recovery, BanDisabledKeepsStrikingAndTripsInvariant) {
  trace::Recorder recorder{/*ring_capacity=*/4};
  trace::InvariantChecker checker;
  recorder.add_sink(&checker);
  Swarm swarm{75, small_file()};
  swarm.world.sim.set_tracer(&recorder);
  swarm.add_wired("venom", true, quiet_config());
  auto config = quiet_config(6882);
  config.unsafe_no_peer_ban = true;
  auto& leech = swarm.add_wired("leech", false, config);

  sim::FaultPlan plan;
  sim::FaultAction corrupt;
  corrupt.kind = sim::FaultKind::kCorrupt;
  corrupt.at = sim::seconds(0.5);
  corrupt.duration = sim::seconds(58.0);
  corrupt.magnitude = 0.5;
  corrupt.target = "venom";
  plan.actions.push_back(corrupt);
  auto injector = exp::bind_faults(swarm, plan);

  swarm.start_all();
  swarm.run_for(60.0);
  swarm.world.sim.set_tracer(nullptr);

  // Only corrupt data on offer and no defense: strikes sail past the
  // threshold and the peer-ban rule flags the run.
  EXPECT_EQ(leech->stats().peers_banned, 0u);
  EXPECT_GT(leech->stats().peer_strikes, 3u);
  bool flagged = false;
  for (const auto& v : checker.violations()) flagged |= v.rule == "peer-ban";
  EXPECT_TRUE(flagged);
}

TEST(Recovery, ReconnectsAfterTcpTimeoutOnceRemoteReturns) {
  Swarm swarm{76, small_file(8 * 1024 * 1024)};
  auto config = quiet_config();
  // Fail fast: a few data RTOs kill the connection, short SYN ladder on
  // re-dials, snappy reconnect backoff.
  tcp::TcpParams fast_fail;
  fast_fail.max_data_retries = 3;
  fast_fail.max_syn_retries = 2;
  config.reconnect_initial = sim::seconds(2.0);
  // Frequent keep-alives give the dead link unACKed data to time out on.
  config.keepalive_interval = sim::seconds(5.0);
  auto& seed = swarm.add_wired("seed", true, quiet_config());
  // Throttle so the transfer is still mid-flight when the outage hits.
  seed->set_upload_limit(util::Rate::kBps(300.0));
  auto& leech = swarm.add_wired("leech", false, config, {}, fast_fail);
  swarm.start_all();
  swarm.run_for(5.0);
  ASSERT_EQ(leech->peer_count(), 1u);
  ASSERT_FALSE(leech->complete());

  // The seed's host silently vanishes mid-transfer (outage / hand-off): the
  // leech's connection dies by retransmission timeout.
  seed.host->node->set_connected(false);
  swarm.run_for(20.0);
  // The dead connection was torn down (kTimeout) and the backoff ladder is
  // re-dialing; a dial in flight may legitimately occupy a slot here.
  EXPECT_GE(leech->stats().reconnect_attempts, 1u);

  // Once the seed returns, a queued re-dial re-knits the swarm — with the
  // hour-long announce interval the tracker cannot be the discovery path.
  seed.host->node->set_connected(true);
  swarm.run_for(30.0);
  EXPECT_EQ(leech->peer_count(), 1u);
  ASSERT_TRUE(swarm.run_until_complete(leech, 200.0));
}

TEST(Recovery, ReconnectDisabledStaysDisconnected) {
  Swarm swarm{77, small_file(8 * 1024 * 1024)};
  auto config = quiet_config();
  config.reconnect = false;
  tcp::TcpParams fast_fail;
  fast_fail.max_data_retries = 3;
  fast_fail.max_syn_retries = 2;
  config.keepalive_interval = sim::seconds(5.0);
  auto seed_config = quiet_config();
  seed_config.reconnect = false;  // isolate: neither side may re-dial
  auto& seed = swarm.add_wired("seed", true, seed_config);
  seed->set_upload_limit(util::Rate::kBps(300.0));
  auto& leech = swarm.add_wired("leech", false, config, {}, fast_fail);
  swarm.start_all();
  swarm.run_for(5.0);
  ASSERT_EQ(leech->peer_count(), 1u);
  seed.host->node->set_connected(false);
  swarm.run_for(20.0);
  seed.host->node->set_connected(true);
  swarm.run_for(60.0);
  EXPECT_FALSE(leech->complete());
  // Nobody re-dials and no announce is due for an hour: still partitioned.
  EXPECT_EQ(leech->peer_count(), 0u);
  EXPECT_EQ(leech->stats().reconnect_attempts, 0u);
}

TEST(Recovery, DeadDialIsReapedByIdleTimeout) {
  // Regression: a dial to a peer that crashed after announcing must not hold
  // a connection slot forever — the handshake never completes, so the idle
  // timeout reaps it (and no reconnect chain starts for it).
  Swarm swarm{78, small_file()};
  auto config = quiet_config();
  config.idle_timeout = sim::seconds(20.0);
  auto& leech = swarm.add_wired("leech", false, config);

  // A ghost entry: an endpoint nothing listens on (the "crashed" peer).
  AnnounceRequest ghost;
  ghost.info_hash = swarm.meta.info_hash;
  ghost.endpoint = {net::IpAddr{9999}, 6881};
  ghost.peer_id = 777;
  ghost.event = AnnounceEvent::kStarted;
  swarm.tracker.announce(ghost, nullptr);

  swarm.start_all();
  swarm.run_for(5.0);
  // The dial is in flight (SYN retries), occupying a slot.
  EXPECT_EQ(leech->peer_count(), 1u);
  swarm.run_for(25.0);  // > idle_timeout
  EXPECT_EQ(leech->peer_count(), 0u);
  // A never-established dial must not enter the reconnect ladder.
  EXPECT_EQ(leech->stats().reconnect_attempts, 0u);
}

}  // namespace
}  // namespace wp2p::bt
