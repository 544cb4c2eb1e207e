// End-to-end BitTorrent client behaviour on the simulated network: full
// downloads, piece exchange between leeches, tit-for-tat choking, rarest-first
// dispersal, seeding, mobility re-initiation, and identity retention.
#include <gtest/gtest.h>

#include "exp/swarm.hpp"

namespace wp2p::bt {
namespace {

using exp::Swarm;

Metainfo small_file(std::int64_t size = 2 * 1024 * 1024) {
  return Metainfo::create("testfile", size, 256 * 1024, "tracker", 1);
}

ClientConfig fast_config(std::uint16_t port = 6881) {
  ClientConfig c;
  c.listen_port = port;
  c.announce_interval = sim::seconds(30.0);
  return c;
}

TEST(ClientSwarm, LeechDownloadsFromSeed) {
  Swarm swarm{1, small_file()};
  auto& seed = swarm.add_wired("seed", true, fast_config());
  auto& leech = swarm.add_wired("leech", false, fast_config());
  swarm.start_all();
  ASSERT_TRUE(swarm.run_until_complete(leech, 300.0));
  EXPECT_EQ(leech->store().bytes_completed(), swarm.meta.total_size);
  EXPECT_EQ(seed->stats().payload_uploaded, swarm.meta.total_size);
  EXPECT_EQ(leech->stats().payload_downloaded, swarm.meta.total_size);
}

TEST(ClientSwarm, CompletedLeechBecomesSeedOnTracker) {
  Swarm swarm{2, small_file()};
  swarm.add_wired("seed", true, fast_config());
  auto& leech = swarm.add_wired("leech", false, fast_config());
  swarm.start_all();
  ASSERT_TRUE(swarm.run_until_complete(leech, 300.0));
  swarm.run_for(1.0);
  EXPECT_EQ(swarm.tracker.seed_count(swarm.meta.info_hash), 2u);
}

TEST(ClientSwarm, SecondLeechDownloadsFromFirst) {
  // Seed + two leeches: leeches must exchange pieces with each other, not
  // only with the seed (bi-directional data transfer, Section 3.2).
  Swarm swarm{3, small_file(4 * 1024 * 1024)};
  auto& seed = swarm.add_wired("seed", true, fast_config());
  // Throttle the seed so leech-to-leech exchange matters.
  seed->set_upload_limit(util::Rate::kBps(100));
  auto& l1 = swarm.add_wired("l1", false, fast_config());
  auto& l2 = swarm.add_wired("l2", false, fast_config());
  swarm.start_all();
  ASSERT_TRUE(swarm.run_until_complete(l1, 600.0));
  ASSERT_TRUE(swarm.run_until_complete(l2, 600.0));
  // Both leeches must have uploaded something: pure seed-feeding would leave
  // one of them at zero.
  EXPECT_GT(l1->stats().payload_uploaded, 0);
  EXPECT_GT(l2->stats().payload_uploaded, 0);
}

TEST(ClientSwarm, RarestFirstKeepsSeedEfficient) {
  // The point of rarest-first (Section 2.2): leeches fetch *distinct* pieces
  // from the bottleneck seed, so the bytes leaving the seed are mostly unique
  // pieces rather than duplicates.
  Swarm swarm{4, small_file(16 * 1024 * 1024)};
  auto& seed = swarm.add_wired("seed", true, fast_config());
  seed->set_upload_limit(util::Rate::kBps(200));
  Swarm::Member* leeches[3];
  for (int i = 0; i < 3; ++i) {
    // Appended, not "l" + to_string(i): GCC 12 at -O3 warns -Wrestrict on
    // that operator+ (a false positive).
    std::string name = "l";
    name += std::to_string(i);
    leeches[i] = &swarm.add_wired(name, false, fast_config());
  }
  swarm.start_all();
  swarm.run_for(60.0);
  Bitfield the_union{swarm.meta.piece_count()};
  for (auto* l : leeches) {
    const Bitfield& bf = (*l)->store().bitfield();
    for (int p = 0; p < bf.size(); ++p) {
      if (bf.test(p)) the_union.set(p);
    }
  }
  ASSERT_FALSE(the_union.all()) << "test must sample mid-download";
  const double distinct_bytes =
      static_cast<double>(the_union.count()) * static_cast<double>(swarm.meta.piece_length);
  const double seed_bytes = static_cast<double>(seed->stats().payload_uploaded);
  ASSERT_GT(seed_bytes, 0.0);
  // At least ~70% of the bytes the seed pushed were unique pieces.
  EXPECT_GT(distinct_bytes / seed_bytes, 0.7);
}

TEST(ClientSwarm, TitForTatRewardsUploader) {
  // Two leeches with complementary halves plus a choked-off seed: the leech
  // that uploads faster enjoys reciprocation. Here we verify the basic
  // reciprocity loop: both exchange and complete.
  Swarm swarm{5, small_file(2 * 1024 * 1024)};
  auto& l1 = swarm.add_wired("l1", false, fast_config());
  auto& l2 = swarm.add_wired("l2", false, fast_config());
  // Give each leech half of the pieces (complementary).
  const int n = swarm.meta.piece_count();
  for (int p = 0; p < n; ++p) {
    auto& store = const_cast<PieceStore&>((p % 2 == 0 ? l1 : l2)->store());
    store.mark_piece(p);
  }
  swarm.start_all();
  ASSERT_TRUE(swarm.run_until_complete(l1, 300.0));
  ASSERT_TRUE(swarm.run_until_complete(l2, 300.0));
  EXPECT_GT(l1->stats().payload_uploaded, 0);
  EXPECT_GT(l2->stats().payload_uploaded, 0);
}

TEST(ClientSwarm, UploadLimitIsRespected) {
  Swarm swarm{6, small_file(2 * 1024 * 1024)};
  auto& seed = swarm.add_wired("seed", true, fast_config());
  seed->set_upload_limit(util::Rate::kBps(50));
  auto& leech = swarm.add_wired("leech", false, fast_config());
  swarm.start_all();
  swarm.run_for(20.0);
  // At 50 KB/s at most ~1 MB + burst can move in 20 s, so the 2 MiB download
  // cannot be done; an unthrottled seed would finish it in a few seconds.
  EXPECT_LE(seed->stats().payload_uploaded, static_cast<std::int64_t>(50.0 * 1000 * 21) + 64 * 1024);
  EXPECT_GT(seed->stats().payload_uploaded, 0);
  EXPECT_FALSE(leech->complete());
  ASSERT_TRUE(swarm.run_until_complete(leech, 300.0));
}

TEST(ClientSwarm, SequentialSelectorDownloadsInOrder) {
  Swarm swarm{7, small_file()};
  swarm.add_wired("seed", true, fast_config());
  auto& leech = swarm.add_wired("leech", false, fast_config());
  leech->set_selector(std::make_unique<SequentialSelector>());
  std::vector<int> completed;
  leech->on_piece_complete = [&](int piece) { completed.push_back(piece); };
  swarm.start_all();
  ASSERT_TRUE(swarm.run_until_complete(leech, 300.0));
  // With a single upstream peer the completion order must be sorted.
  for (std::size_t i = 1; i < completed.size(); ++i) {
    EXPECT_LT(completed[i - 1], completed[i]);
  }
  EXPECT_EQ(leech->store().contiguous_bytes(), swarm.meta.total_size);
}

TEST(ClientSwarm, SnubDetectionFlagsStalledPeerAndDeliveryClearsIt) {
  // A seed throttled to ~50 B/s takes minutes per block: the leech's requests
  // expire, periodic_maintenance snubs the peer and requeues the blocks, and
  // the continued stall accumulates stall-audit scores. Un-throttling the
  // seed delivers a block, which clears the snub.
  Swarm swarm{40, small_file()};
  auto& seed = swarm.add_wired("seed", true, fast_config());
  auto& leech = swarm.add_wired("leech", false, fast_config(6882));
  seed->set_upload_limit(util::Rate::kBps(0.05));
  swarm.start_all();

  // The first optimistic unchoke lands on a maintenance tick, so give the
  // leech a tick or two to get its pipeline out.
  swarm.run_for(25.0);
  PeerConnection* conn = leech->peer_by_id(seed->peer_id());
  ASSERT_NE(conn, nullptr);
  EXPECT_FALSE(conn->snubbed);
  EXPECT_GT(conn->outstanding.size(), 0u);

  // First requests expire after request_timeout (60 s); the next maintenance
  // pass marks the peer snubbed and requeues the blocks.
  swarm.run_for(75.0);
  conn = leech->peer_by_id(seed->peer_id());
  ASSERT_NE(conn, nullptr);
  EXPECT_TRUE(conn->snubbed);
  EXPECT_GT(leech->stats().blocks_requeued, 0u);

  // Six more consecutive snubbed maintenance ticks score a stall audit.
  swarm.run_for(80.0);
  EXPECT_GE(leech->stats().stall_audits, 1u);
  EXPECT_LT(leech->stats().peers_banned, 1u);  // audits alone never reach a ban here

  // Delivery resets the snub: the first block through clears the flag.
  seed->set_upload_limit(util::Rate::kBps(1000.0));
  ASSERT_TRUE(swarm.run_until_complete(leech, 120.0));
  conn = leech->peer_by_id(seed->peer_id());
  if (conn != nullptr) {
    EXPECT_FALSE(conn->snubbed);
  }
}

TEST(ClientSwarm, EndgameDuplicatesStragglersToOtherPeers) {
  // Two seeds, one nearly dead, and a window that ends before the 60-s
  // request timeout can fire: the blocks pipelined to the dead seed can only
  // be rescued by end-game duplication to the live seed.
  Swarm swarm{41, small_file(4 * 1024 * 1024)};
  auto& fast = swarm.add_wired("fast", true, fast_config());
  fast->set_upload_limit(util::Rate::kBps(200.0));
  auto& slow = swarm.add_wired("slow", true, fast_config(6882));
  slow->set_upload_limit(util::Rate::kBps(0.05));
  auto& leech = swarm.add_wired("leech", false, fast_config(6883));
  swarm.start_all();

  ASSERT_TRUE(swarm.run_until_complete(leech, 55.0));
  EXPECT_EQ(leech->stats().blocks_requeued, 0u);  // no request timed out
  // Every duplicate pinned at the dead seed was cancelled as the live copy
  // landed — nothing is left outstanding there.
  PeerConnection* conn = leech->peer_by_id(slow->peer_id());
  if (conn != nullptr) {
    EXPECT_TRUE(conn->outstanding.empty());
  }
}

TEST(ClientSwarm, WithoutEndgameStragglersStayPinned) {
  // The control for the test above: same dead seed and window, endgame
  // disabled. The blocks pipelined to it are never duplicated and the
  // download cannot finish inside the window.
  Swarm swarm{41, small_file(4 * 1024 * 1024)};
  auto& fast = swarm.add_wired("fast", true, fast_config());
  fast->set_upload_limit(util::Rate::kBps(200.0));
  auto& slow = swarm.add_wired("slow", true, fast_config(6882));
  slow->set_upload_limit(util::Rate::kBps(0.05));
  auto cfg = fast_config(6883);
  cfg.endgame_block_threshold = 0;
  auto& leech = swarm.add_wired("leech", false, cfg);
  swarm.start_all();

  swarm.run_for(55.0);
  EXPECT_FALSE(leech->complete());
  PeerConnection* conn = leech->peer_by_id(slow->peer_id());
  ASSERT_NE(conn, nullptr);
  EXPECT_GT(conn->outstanding.size(), 0u);
}

TEST(ClientSwarm, AddressChangeReinitiatesTask) {
  Swarm swarm{8, small_file(8 * 1024 * 1024)};
  auto& seed = swarm.add_wired("seed", true, fast_config());
  seed->set_upload_limit(util::Rate::kBps(300));
  auto& leech = swarm.add_wired("leech", false, fast_config());
  swarm.start_all();
  swarm.run_for(20.0);
  const PeerId old_id = leech->peer_id();
  const std::int64_t before = leech->stats().payload_downloaded;
  EXPECT_GT(before, 0);
  leech.host->node->change_address();
  swarm.run_for(30.0);  // kLeechReinitDelay is 5 s; give it time to resume
  EXPECT_NE(leech->peer_id(), old_id);  // default client regenerates its id
  EXPECT_EQ(leech->stats().task_reinitiations, 1u);
  EXPECT_GT(leech->stats().payload_downloaded, before);  // download resumed
}

TEST(ClientSwarm, RetainPeerIdKeepsIdentityAcrossHandoffs) {
  auto config = fast_config();
  config.retain_peer_id = true;
  Swarm swarm{9, small_file(8 * 1024 * 1024)};
  swarm.add_wired("seed", true, fast_config());
  auto& leech = swarm.add_wired("leech", false, config);
  swarm.start_all();
  swarm.run_for(10.0);
  const PeerId id = leech->peer_id();
  leech.host->node->change_address();
  swarm.run_for(30.0);
  EXPECT_EQ(leech->peer_id(), id);
}

TEST(ClientSwarm, RoleReversalReconnectsInstantly) {
  auto rr = fast_config();
  rr.role_reversal = true;
  rr.retain_peer_id = true;
  Swarm swarm{10, small_file(8 * 1024 * 1024)};
  auto& seed = swarm.add_wired("seed", true, fast_config());
  seed->set_upload_limit(util::Rate::kBps(300));
  auto& leech = swarm.add_wireless("mobile", false, rr);
  swarm.start_all();
  swarm.run_for(20.0);
  bool reinitiated = false;
  leech->on_reinitiated = [&] { reinitiated = true; };
  leech.host->node->change_address();
  EXPECT_TRUE(reinitiated);  // RR acts synchronously with the hand-off
  swarm.run_for(2.0);
  EXPECT_GT(leech->peer_count(), 0u);  // reconnected without waiting
}

TEST(ClientSwarm, SeedsDoNotConnectToEachOther) {
  Swarm swarm{11, small_file()};
  auto& s1 = swarm.add_wired("s1", true, fast_config());
  auto& s2 = swarm.add_wired("s2", true, fast_config(6882));
  swarm.start_all();
  swarm.run_for(60.0);
  EXPECT_EQ(s1->peer_count(), 0u);
  EXPECT_EQ(s2->peer_count(), 0u);
}

TEST(ClientSwarm, StopAnnouncesStopped) {
  Swarm swarm{12, small_file()};
  auto& seed = swarm.add_wired("seed", true, fast_config());
  swarm.start_all();
  swarm.run_for(5.0);
  EXPECT_EQ(swarm.tracker.swarm_size(swarm.meta.info_hash), 1u);
  seed->stop();
  swarm.run_for(5.0);
  EXPECT_EQ(swarm.tracker.swarm_size(swarm.meta.info_hash), 0u);
  EXPECT_EQ(seed->peer_count(), 0u);
}

TEST(ClientSwarm, OnCompleteFires) {
  Swarm swarm{13, small_file()};
  swarm.add_wired("seed", true, fast_config());
  auto& leech = swarm.add_wired("leech", false, fast_config());
  bool completed = false;
  leech->on_complete = [&] { completed = true; };
  swarm.start_all();
  ASSERT_TRUE(swarm.run_until_complete(leech, 300.0));
  EXPECT_TRUE(completed);
}

TEST(ClientSwarm, DownloadSurvivesSeedDeparture) {
  // The leech gets half the file, the seed leaves, a second seed joins late.
  Swarm swarm{14, small_file(4 * 1024 * 1024)};
  auto& seed = swarm.add_wired("seed", true, fast_config());
  seed->set_upload_limit(util::Rate::kBps(400));
  auto& leech = swarm.add_wired("leech", false, fast_config());
  swarm.start_all();
  swarm.run_for(5.0);
  seed->stop();
  swarm.run_for(10.0);
  EXPECT_FALSE(leech->complete());
  auto& late_seed = swarm.add_wired("late", true, fast_config(6883));
  late_seed.client->start();
  ASSERT_TRUE(swarm.run_until_complete(leech, 600.0));
}

TEST(ClientSwarm, WirelessLeechCompletes) {
  Swarm swarm{15, small_file()};
  swarm.add_wired("seed", true, fast_config());
  net::WirelessParams wless;
  wless.bit_error_rate = 1e-6;
  auto& leech = swarm.add_wireless("mobile", false, fast_config(), wless);
  swarm.start_all();
  ASSERT_TRUE(swarm.run_until_complete(leech, 600.0));
}

}  // namespace
}  // namespace wp2p::bt
