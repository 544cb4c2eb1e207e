// Discovery resilience: multi-tracker failover tiers, PEX gossip, and the
// bootstrap cache that survives crash/restart.
#include <gtest/gtest.h>

#include "exp/faults.hpp"
#include "exp/swarm.hpp"
#include "net/address.hpp"

namespace wp2p::bt {
namespace {

using exp::Swarm;

Metainfo small_file(std::int64_t size = 1024 * 1024) {
  return Metainfo::create("discfile", size, 256 * 1024, "tracker", 77);
}

// An announce interval long enough that nothing periodic fires inside a test
// window: every tracker contact is attributable to the discovery layer.
ClientConfig quiet_config(std::uint16_t port = 6881) {
  ClientConfig c;
  c.listen_port = port;
  c.announce_interval = sim::minutes(60.0);
  return c;
}

TEST(TrackerList, TiersKeepRegistrationOrderAndNeverOutrankLowerOnes) {
  sim::Simulator sim;
  Tracker primary{sim}, a{sim}, b{sim}, c{sim};
  TrackerList list{primary};
  list.add(a, 1);
  list.add(b, 1);
  list.add(c, 0);  // late tier-0 registration still sorts before every tier 1
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list.tier_of(0), 0);
  EXPECT_EQ(list.tier_of(1), 0);
  EXPECT_EQ(list.tier_of(2), 1);
  EXPECT_EQ(list.tier_of(3), 1);
  EXPECT_EQ(&list.primary(), &primary);
  EXPECT_EQ(&list.current(), &primary);

  // The cursor walks the tier order and wraps.
  EXPECT_EQ(list.advance(), 1u);
  EXPECT_EQ(&list.current(), &c);
  EXPECT_EQ(list.advance(), 2u);
  EXPECT_EQ(&list.current(), &a);
  EXPECT_EQ(list.advance(), 3u);
  EXPECT_EQ(&list.current(), &b);
  EXPECT_EQ(list.advance(), 0u);
}

TEST(TrackerList, PromoteMovesWithinTierOnlyAndFailbackGoesHome) {
  sim::Simulator sim;
  Tracker primary{sim}, a{sim}, b{sim};
  TrackerList list{primary};
  list.add(a, 1);
  list.add(b, 1);
  list.advance();  // a
  list.advance();  // b
  list.promote_current();
  // b now leads tier 1 (slot 1) but never outranks the tier-0 primary.
  EXPECT_EQ(list.cursor(), 1u);
  EXPECT_EQ(&list.current(), &b);
  EXPECT_EQ(list.tier_of(1), 1);
  EXPECT_EQ(&list.primary(), &primary);
  list.promote_current();  // already at its tier head: no-op
  EXPECT_EQ(&list.current(), &b);
  list.failback();
  EXPECT_EQ(list.cursor(), 0u);
  EXPECT_EQ(&list.current(), &primary);
}

TEST(Discovery, FailoverRegistersOnBackupThenFailsBackToPrimary) {
  Swarm swarm{301, small_file()};
  Tracker& backup = swarm.add_backup_tracker(1);
  auto config = quiet_config();
  auto& seed = swarm.add_wired("seed", true, config);
  auto config2 = config;
  config2.listen_port = 6882;
  auto& leech = swarm.add_wired("leech", false, config2);
  swarm.tracker.set_reachable(false);
  swarm.start_all();

  // The kStarted announce fails; the cursor advances and the retry chain dials
  // the backup within seconds — the swarm forms without the primary.
  swarm.run_for(30.0);
  EXPECT_EQ(swarm.tracker.swarm_size(swarm.meta.info_hash), 0u);
  EXPECT_EQ(backup.swarm_size(swarm.meta.info_hash), 2u);
  EXPECT_GE(leech->stats().tracker_failovers, 1u);
  EXPECT_EQ(leech->discovery().tracker_cursor(), 1u);
  ASSERT_TRUE(swarm.run_until_complete(leech, 60.0));
  // The backup answered, so discovery was never dark: no cache dials.
  EXPECT_EQ(leech->stats().bootstrap_dials, 0u);
  EXPECT_EQ(seed->stats().bootstrap_dials, 0u);

  // Once the primary returns, the periodic probe (every 60 s) moves
  // announces home.
  swarm.tracker.set_reachable(true);
  swarm.run_for(150.0);
  EXPECT_GE(leech->stats().tracker_failbacks, 1u);
  EXPECT_EQ(leech->discovery().tracker_cursor(), 0u);
  EXPECT_GE(swarm.tracker.swarm_size(swarm.meta.info_hash), 1u);
}

TEST(Discovery, FirstResponsiveBackupIsPromotedToItsTierHead) {
  Swarm swarm{302, small_file()};
  swarm.add_backup_tracker(1);           // tr1: down, like the primary
  Tracker& tr2 = swarm.add_backup_tracker(1);  // tr2: the only one alive
  auto& solo = swarm.add_wired("solo", true, quiet_config());
  swarm.tracker.set_reachable(false);
  swarm.set_tracker_reachable("tr1", false);
  swarm.start_all();

  swarm.run_for(30.0);
  ASSERT_EQ(solo->discovery().tracker_count(), 3u);
  EXPECT_GE(solo->stats().tracker_failovers, 2u);
  EXPECT_EQ(tr2.swarm_size(swarm.meta.info_hash), 1u);
  // tr2 served and was promoted past tr1 to the head of tier 1 (slot 1), so
  // the next failover cycle tries it before the dead backup.
  EXPECT_EQ(solo->discovery().tracker_cursor(), 1u);
}

TEST(Discovery, PexGossipBridgesPeersTheTrackerNeverIntroduced) {
  // A tracker that returns a single peer per announce: the only way the two
  // leeches can ever meet is the seed gossiping them to each other.
  TrackerConfig stingy;
  stingy.max_peers_returned = 1;
  Swarm swarm{303, small_file(), stingy};
  auto config = quiet_config();
  // Throttle the hub so both leeches are still mid-download when gossip
  // introduces them — the new edge carries real piece traffic.
  config.upload_limit = util::Rate::kBps(40.0);
  auto& hub = swarm.add_wired("hub", true, config);
  auto config_b = config;
  config_b.listen_port = 6882;
  auto& b = swarm.add_wired("b", false, config_b);
  auto config_c = config;
  config_c.listen_port = 6883;
  auto& c = swarm.add_wired("c", false, config_c);
  swarm.start_all();

  swarm.run_for(20.0);
  // Gossip flowed and introduced the third edge of the mesh mid-download.
  ASSERT_FALSE(b->complete());
  ASSERT_FALSE(c->complete());
  EXPECT_GE(hub->stats().pex_sent, 1u);
  EXPECT_GE(b->stats().pex_received + c->stats().pex_received, 1u);
  EXPECT_GE(b->stats().pex_peers_learned + c->stats().pex_peers_learned, 1u);
  EXPECT_EQ(b->peer_count(), 2u);
  EXPECT_EQ(c->peer_count(), 2u);
  ASSERT_TRUE(swarm.run_until_complete(b, 120.0));
  ASSERT_TRUE(swarm.run_until_complete(c, 120.0));
}

TEST(Discovery, PexPropagatesPostHandoffAddressWhileTrackersDark) {
  // The composition the paper's mobile host needs: after a hand-off with every
  // tracker dark, the mover re-enters through its bootstrap cache, the
  // handshake carries its new listen endpoint, and PEX spreads that address to
  // peers the mover never re-dialed — identity retained throughout.
  Swarm swarm{304, small_file()};
  auto config = quiet_config();
  config.upload_limit = util::Rate::kBps(40.0);  // keep m mid-download at hand-off
  auto& hub = swarm.add_wired("hub", true, config);
  auto config_c = config;
  config_c.listen_port = 6882;
  // c holds exactly one connection (the hub) and rejects every inbound dial
  // beyond it, so m can never reach c directly — neither now nor from its
  // bootstrap cache later. c's only way to hear about m is the hub's gossip.
  config_c.max_peers = 1;
  auto& c = swarm.add_wired("c", false, config_c);
  auto config_m = config;
  config_m.listen_port = 6883;
  config_m.retain_peer_id = true;
  auto& m = swarm.add_wireless("m", false, config_m);
  swarm.start_all();

  swarm.run_for(12.0);
  ASSERT_FALSE(m->complete());
  ASSERT_GE(m->discovery().bootstrap_cache().size(), 1u);
  ASSERT_EQ(c->peer_count(), 1u);
  const PeerId m_id = m->peer_id();
  const auto c_learned_before = c->stats().pex_peers_learned;

  swarm.tracker.set_reachable(false);
  m.host->node->change_address();
  swarm.run_for(60.0);

  // m found its way back without any tracker: the failed re-announce left
  // discovery dark and the cache supplied the re-dials.
  EXPECT_GE(m->stats().bootstrap_dials, 1u);
  EXPECT_EQ(m->peer_id(), m_id);
  EXPECT_GE(m->peer_count(), 1u);
  // The new address reached c by gossip alone (fresh endpoint for a known id).
  EXPECT_GE(hub->stats().pex_sent, 1u);
  EXPECT_GT(c->stats().pex_peers_learned, c_learned_before);
  ASSERT_TRUE(swarm.run_until_complete(m, 180.0));
}

// Runs `swarm` (clean seed + corrupting seed "venom" + leech) until the leech
// has banned venom; returns venom's peer id.
PeerId ban_venom(Swarm& swarm, Swarm::Member& venom, Swarm::Member& leech) {
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
  for (int i = 0; i < 120 && leech->stats().peers_banned == 0; ++i) swarm.run_for(1.0);
  EXPECT_EQ(leech->stats().peers_banned, 1u);
  return venom->peer_id();
}

TEST(Discovery, PexEntryWithBannedIdentityIsNeverLearnedOrDialed) {
  Swarm swarm{305, small_file(2 * 1024 * 1024)};
  auto& clean = swarm.add_wired("clean", true, quiet_config());
  auto& venom = swarm.add_wired("venom", true, quiet_config(6882));
  auto& leech = swarm.add_wired("leech", false, quiet_config(6883));
  const PeerId venom_id = ban_venom(swarm, venom, leech);

  // The ban scrubbed venom from the bootstrap cache as well.
  for (const auto& entry : leech->discovery().bootstrap_cache().entries()) {
    EXPECT_NE(entry.peer_id, venom_id);
  }

  // Gossip arrives advertising the banned identity at a brand-new endpoint
  // (a moved corrupter), alongside one legitimately unknown peer.
  PeerConnection* conn = leech->peer_by_id(clean->peer_id());
  ASSERT_NE(conn, nullptr);
  const auto learned_before = leech->stats().pex_peers_learned;
  const net::Endpoint venom_moved{net::IpAddr{777}, 7000};
  leech->inject_peer_message(
      *conn, *WireMessage::pex({PexPeer{venom_moved, venom_id},
                                PexPeer{net::Endpoint{net::IpAddr{778}, 7001}, 555}},
                               {}));
  EXPECT_EQ(leech->stats().pex_banned_skipped, 1u);
  EXPECT_EQ(leech->stats().pex_peers_learned, learned_before + 1);
  swarm.run_for(5.0);
  // The banned identity was neither learned nor dialed at its new address.
  EXPECT_EQ(leech->peer_by_id(venom_id), nullptr);
}

TEST(Discovery, GossipFromBannedSenderIsDiscardedWhole) {
  Swarm swarm{306, small_file(2 * 1024 * 1024)};
  auto& clean = swarm.add_wired("clean", true, quiet_config());
  auto& venom = swarm.add_wired("venom", true, quiet_config(6882));
  auto& leech = swarm.add_wired("leech", false, quiet_config(6883));
  const PeerId venom_id = ban_venom(swarm, venom, leech);

  // Stage the race the async stack cannot schedule on demand: gossip already
  // in flight from a peer the ban decision just condemned. Re-labelling the
  // surviving connection with the banned identity reproduces exactly what
  // handle_pex sees in that window.
  PeerConnection* conn = leech->peer_by_id(clean->peer_id());
  ASSERT_NE(conn, nullptr);
  const PeerId clean_id = conn->remote_id;
  conn->remote_id = venom_id;
  const auto received_before = leech->stats().pex_received;
  const auto learned_before = leech->stats().pex_peers_learned;
  leech->inject_peer_message(
      *conn,
      *WireMessage::pex({PexPeer{net::Endpoint{net::IpAddr{900}, 7100}, 556}}, {}));
  conn->remote_id = clean_id;
  // Discarded whole: not counted as received, nothing learned from it.
  EXPECT_EQ(leech->stats().pex_discarded, 1u);
  EXPECT_EQ(leech->stats().pex_received, received_before);
  EXPECT_EQ(leech->stats().pex_peers_learned, learned_before);
}

TEST(Discovery, BanOutlivesHandoffAndRoleReversalSkipsBannedEndpoints) {
  // The ban/identity-retention interplay: a wP2P mover bans a corrupter, then
  // hands off. Role reversal re-dials every remembered listen endpoint — the
  // banned identity's endpoint is still remembered (consider_reconnect needs
  // the mapping to keep refusing it), so the re-dial loop must skip it while
  // still re-dialing the clean peer.
  Swarm swarm{307, small_file(2 * 1024 * 1024)};
  auto& clean = swarm.add_wired("clean", true, quiet_config());
  auto& venom = swarm.add_wired("venom", true, quiet_config(6882));
  auto config_m = quiet_config(6883);
  config_m.retain_peer_id = true;
  config_m.role_reversal = true;
  auto& m = swarm.add_wireless("m", false, config_m);
  const PeerId venom_id = ban_venom(swarm, venom, m);
  ASSERT_EQ(m->peer_by_id(venom_id), nullptr);

  const auto reinit_before = m->stats().task_reinitiations;
  m.host->node->change_address();
  swarm.run_for(20.0);
  EXPECT_GT(m->stats().task_reinitiations, reinit_before);
  EXPECT_NE(m->peer_by_id(clean->peer_id()), nullptr);
  EXPECT_EQ(m->peer_by_id(venom_id), nullptr);

  // The ban itself survived the hand-off: gossip re-advertising the banned
  // identity at a fresh endpoint is still skipped.
  PeerConnection* conn = m->peer_by_id(clean->peer_id());
  ASSERT_NE(conn, nullptr);
  const auto skipped_before = m->stats().pex_banned_skipped;
  m->inject_peer_message(
      *conn,
      *WireMessage::pex({PexPeer{net::Endpoint{net::IpAddr{901}, 7200}, venom_id}}, {}));
  EXPECT_EQ(m->stats().pex_banned_skipped, skipped_before + 1);
}

TEST(BootstrapCache, TouchDedupsByIdentityEvictsOldestAndRemoveScrubs) {
  BootstrapCache cache{3};
  const net::Endpoint e1{net::IpAddr{1}, 1000};
  const net::Endpoint e2{net::IpAddr{2}, 2000};
  const net::Endpoint e3{net::IpAddr{3}, 3000};
  const net::Endpoint e4{net::IpAddr{4}, 4000};
  cache.touch(e1, 11, 10);
  cache.touch(e2, 22, 20);
  // A moved host keeps its id: the entry is re-pointed, not duplicated.
  cache.touch(e3, 11, 30);
  ASSERT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.entries().back().peer_id, 11u);
  EXPECT_EQ(cache.entries().back().endpoint, e3);
  // Filling past capacity evicts the oldest touch (id 22).
  cache.touch(e1, 33, 40);
  cache.touch(e4, 44, 50);
  ASSERT_EQ(cache.size(), 3u);
  for (const auto& entry : cache.entries()) EXPECT_NE(entry.peer_id, 22u);
  cache.remove(11);
  ASSERT_EQ(cache.size(), 2u);
  for (const auto& entry : cache.entries()) EXPECT_NE(entry.peer_id, 11u);
  // Invalid endpoints and the anonymous id are never cached.
  cache.touch(net::Endpoint{}, 55, 60);
  cache.touch(e2, 0, 60);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Discovery, BootstrapCacheSurvivesCrashAndRedialsWhenTrackersDark) {
  Swarm swarm{307, small_file()};
  auto config = quiet_config();
  config.upload_limit = util::Rate::kBps(50.0);  // still downloading at the crash
  auto& hub = swarm.add_wired("hub", true, config);
  auto config_l = quiet_config(6882);
  auto& leech = swarm.add_wired("leech", false, config_l);
  swarm.start_all();
  swarm.run_for(8.0);
  ASSERT_FALSE(leech->complete());
  ASSERT_GE(leech->discovery().bootstrap_cache().size(), 1u);

  // Crash, and the world goes dark while the client is down.
  leech->stop();
  swarm.tracker.set_reachable(false);
  swarm.run_for(2.0);
  // The cache is member data, like the piece store: it survived the crash.
  ASSERT_GE(leech->discovery().bootstrap_cache().size(), 1u);

  leech->start();
  swarm.run_for(15.0);
  // The restart announce failed at every tier (there is only one), so the
  // cache re-dialed the hub and the transfer resumed trackerless.
  EXPECT_GE(leech->stats().bootstrap_dials, 1u);
  EXPECT_GE(leech->peer_count(), 1u);
  ASSERT_TRUE(swarm.run_until_complete(leech, 120.0));
  (void)hub;
}

TEST(Discovery, BootstrapRedialsAfterRoamIntoDarkCell) {
  // The harshest re-entry the cell layer can stage: the mover roams INTO a
  // cell that is itself down, with every tracker already unreachable. Nothing
  // flows until the cell recovers; then the failed re-announces leave
  // discovery dark and the bootstrap cache supplies the re-dials that rebuild
  // the swarm trackerless, identity intact.
  Swarm swarm{308, small_file()};
  auto config = quiet_config();
  config.upload_limit = util::Rate::kBps(50.0);  // still mid-download at the roam
  auto& hub = swarm.add_wired("hub", true, config);
  auto config_m = quiet_config(6882);
  config_m.retain_peer_id = true;
  swarm.world.enable_cells();
  swarm.world.cells->add_cell();  // cell 0: home
  swarm.world.cells->add_cell();  // cell 1: dark at association time
  auto& m = swarm.add_cellular("m", false, config_m, 0);
  swarm.start_all();
  swarm.run_for(8.0);
  ASSERT_FALSE(m->complete());
  ASSERT_GE(m->discovery().bootstrap_cache().size(), 1u);
  const PeerId m_id = m->peer_id();

  swarm.tracker.set_reachable(false);
  swarm.world.cells->cell(1).set_down(true);
  swarm.world.cells->handoff(*m.host->node, 1);
  swarm.run_for(5.0);
  ASSERT_EQ(swarm.world.cells->cell_of(*m.host->node), 1);
  ASSERT_EQ(m->peer_count(), 0u);  // the dark cell passes nothing

  swarm.world.cells->cell(1).set_down(false);
  swarm.run_for(40.0);
  // The re-announce failed at every tier (there is only one), so the cache
  // re-dialed the hub through the recovered cell.
  EXPECT_GE(m->stats().bootstrap_dials, 1u);
  EXPECT_EQ(m->peer_id(), m_id);
  EXPECT_GE(m->peer_count(), 1u);
  ASSERT_TRUE(swarm.run_until_complete(m, 180.0));
  (void)hub;
}

}  // namespace
}  // namespace wp2p::bt
