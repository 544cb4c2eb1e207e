// bt::Enforcer on its own: strikes per threshold crossing, the ban at the
// third strike, the two unsafe switches, mobility grace windows, and the
// smart ban of the contributors of damaged blocks.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "bt/enforcer.hpp"
#include "client_context_fixture.hpp"

namespace wp2p::bt {
namespace {

struct EnforcerUnit : testing::ClientContextFixture {
  std::vector<PeerId> bans;
  Enforcer make() {
    return Enforcer{ctx, [this](PeerId id) { bans.push_back(id); }};
  }
};

// Evidence per strike for each Offense, in enum order.
constexpr std::array<int, kOffenseKinds> kThresholds{64, 4, 8, 1, 16, 32};

TEST_F(EnforcerUnit, EachThresholdCrossingStrikesOnce) {
  config.unsafe_no_peer_ban = true;  // count strikes past the ban threshold
  Enforcer enforcer = make();
  for (std::size_t kind = 0; kind < kOffenseKinds; ++kind) {
    const auto offense = static_cast<Offense>(kind);
    PeerConnection& peer = add_peer(100 + kind, static_cast<std::uint16_t>(7000 + kind));
    const int threshold = kThresholds[kind];
    for (int crossing = 1; crossing <= 4; ++crossing) {
      for (int i = 0; i < threshold - 1; ++i) enforcer.record_offense(peer, offense);
      run_for(0.1);
      EXPECT_EQ(peer.offenses[kind].strikes, crossing - 1) << "offense " << kind;
      enforcer.record_offense(peer, offense);  // the crossing
      run_for(0.1);                            // strikes land one event later
      EXPECT_EQ(peer.offenses[kind].strikes, crossing) << "offense " << kind;
    }
    EXPECT_EQ(peer.offenses[kind].count, 4 * threshold);
  }
  EXPECT_EQ(stats.enforce_strikes, 4 * kOffenseKinds);
  EXPECT_EQ(stats.peer_strikes, 4 * kOffenseKinds);
  EXPECT_TRUE(bans.empty());
}

TEST_F(EnforcerUnit, ThirdStrikeBans) {
  Enforcer enforcer = make();
  const PeerId id = 0xbad;
  enforcer.strike(id, 1);
  enforcer.strike(id, 2);
  EXPECT_FALSE(enforcer.is_banned(id));
  EXPECT_TRUE(bans.empty());
  enforcer.strike(id, 3);
  EXPECT_TRUE(enforcer.is_banned(id));
  EXPECT_EQ(bans, std::vector<PeerId>{id});
  enforcer.strike(id, 4);  // a banned peer is beyond striking
  EXPECT_EQ(stats.peer_strikes, 3u);
  EXPECT_EQ(stats.peers_banned, 1u);
  EXPECT_EQ(bans.size(), 1u);
}

TEST_F(EnforcerUnit, OffensesBanAfterThreeCrossings) {
  Enforcer enforcer = make();
  PeerConnection& peer = add_peer(0xf100d, 7000);
  for (int i = 0; i < 3 * kThresholds[0]; ++i) enforcer.record_offense(peer, Offense::kFlood);
  run_for(0.1);
  EXPECT_TRUE(enforcer.is_banned(0xf100d));
  EXPECT_EQ(bans, std::vector<PeerId>{0xf100d});
}

TEST_F(EnforcerUnit, NoEnforcementDetectsButNeverStrikes) {
  config.unsafe_no_enforcement = true;
  Enforcer enforcer = make();
  PeerConnection& peer = add_peer(0x11a, 7000);
  for (int i = 0; i < 10 * kThresholds[1]; ++i) enforcer.record_offense(peer, Offense::kMalformed);
  run_for(0.1);
  const auto& tally = peer.offenses[static_cast<std::size_t>(Offense::kMalformed)];
  EXPECT_EQ(tally.strikes, 10);  // every crossing is still detected
  EXPECT_EQ(stats.enforce_strikes, 0u);
  EXPECT_EQ(stats.peer_strikes, 0u);
  EXPECT_FALSE(enforcer.is_banned(0x11a));
}

TEST_F(EnforcerUnit, NoPeerBanKeepsStriking) {
  config.unsafe_no_peer_ban = true;
  Enforcer enforcer = make();
  for (int i = 0; i < 5; ++i) enforcer.strike(0xbad, i);
  EXPECT_EQ(stats.peer_strikes, 5u);
  EXPECT_FALSE(enforcer.is_banned(0xbad));
  EXPECT_EQ(stats.peers_banned, 0u);
  EXPECT_TRUE(bans.empty());
}

TEST_F(EnforcerUnit, PreHandshakeOffenderIsNeverStruck) {
  Enforcer enforcer = make();
  PeerConnection& peer = add_peer(0, 7000);
  for (int i = 0; i < 3 * kThresholds[3]; ++i) enforcer.record_offense(peer, Offense::kStall);
  run_for(0.1);
  EXPECT_EQ(stats.enforce_strikes, 0u);
  EXPECT_EQ(stats.peer_strikes, 0u);
}

TEST_F(EnforcerUnit, GraceWindowsLastTwoMinutesAndExtend) {
  Enforcer enforcer = make();
  const PeerId id = 0x90b;
  EXPECT_FALSE(enforcer.in_grace(id));
  enforcer.grant_grace(id, "timeout");
  EXPECT_TRUE(enforcer.in_grace(id));
  EXPECT_EQ(stats.grace_grants, 1u);
  enforcer.grant_grace(id, "moved");  // same instant: the window already covers it
  EXPECT_EQ(stats.grace_grants, 1u);
  run_for(60.0);
  EXPECT_TRUE(enforcer.in_grace(id));
  enforcer.grant_grace(id, "moved");  // extends the window to 180 s
  EXPECT_EQ(stats.grace_grants, 2u);
  run_for(119.0);  // t = 179 s
  EXPECT_TRUE(enforcer.in_grace(id));
  run_for(1.0);  // t = 180 s: the window has lapsed
  EXPECT_FALSE(enforcer.in_grace(id));
  enforcer.grant_grace(0, "timeout");  // an anonymous peer gets none
  EXPECT_FALSE(enforcer.in_grace(0));
  EXPECT_EQ(stats.grace_grants, 2u);
}

TEST_F(EnforcerUnit, GraceHoldsStallAndLiarEvidence) {
  Enforcer enforcer = make();
  PeerConnection& peer = add_peer(0x90b, 7000);
  peer.snubbed = true;
  enforcer.grant_grace(peer.remote_id, "moved");
  for (int tick = 0; tick < 20; ++tick) enforcer.audit_stall(peer);
  enforcer.note_timeouts(peer, {0, 1, 2});  // zero payload: liar evidence, but held
  EXPECT_EQ(stats.stall_audits, 0u);
  EXPECT_EQ(stats.liar_detections, 0u);
  run_for(121.0);
  for (int tick = 0; tick < 6; ++tick) enforcer.audit_stall(peer);
  enforcer.note_timeouts(peer, {0, 1, 2});
  EXPECT_EQ(stats.stall_audits, 1u);
  EXPECT_EQ(stats.liar_detections, 3u);
}

TEST_F(EnforcerUnit, SmartBanStrikesOnlyContributorsOfDamagedBlocks) {
  Enforcer enforcer = make();
  const int piece = 2;
  const int blocks = store.blocks_in_piece(piece);
  ASSERT_EQ(blocks, 16);
  const PeerId a = 0xa, b = 0xb, c = 0xc;
  BlockResult result = BlockResult::kDuplicate;
  for (int block = 0; block < blocks; ++block) {
    // a supplies the even blocks, b the odd ones; c overwrites block 5.
    enforcer.record_contributor(block % 2 == 0 ? a : b, piece, block);
    if (block == 5) enforcer.record_contributor(c, piece, block);
    // Blocks 0, 4 (both from a) and 5 (from c) arrive damaged.
    result = store.mark_block(piece, block, block == 0 || block == 4 || block == 5);
  }
  ASSERT_EQ(result, BlockResult::kPieceCorrupt);
  enforcer.strike_contributors(piece);
  EXPECT_EQ(stats.peer_strikes, 2u);  // a once for two blocks, c once
  enforcer.strike(a, -1);
  enforcer.strike(a, -1);
  EXPECT_TRUE(enforcer.is_banned(a));   // a's first strike came from the piece
  enforcer.strike(b, -1);
  enforcer.strike(b, -1);
  EXPECT_FALSE(enforcer.is_banned(b));  // b supplied only clean blocks
  enforcer.strike_contributors(piece);  // the attribution went with the piece
  EXPECT_EQ(stats.peer_strikes, 6u);
}

}  // namespace
}  // namespace wp2p::bt
