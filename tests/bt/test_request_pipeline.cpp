// bt::RequestPipeline on its own: pieces in progress come first, end-game
// starts at endgame_block_threshold and cancels its copies, and requests
// return to the pool on return_outstanding and on timeout.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "bt/request_pipeline.hpp"
#include "client_context_fixture.hpp"

namespace wp2p::bt {
namespace {

using State = RequestPipeline::BlockState;

struct RequestPipelineUnit : testing::ClientContextFixture {
  Enforcer enforcer{ctx, [](PeerId) {}};
  RequestPipeline pipeline{ctx, enforcer};

  // A peer that holds every piece and unchokes us; evaluate_interest then
  // fills its pipeline.
  PeerConnection& add_seed(PeerId id, std::uint16_t port) {
    PeerConnection& peer = add_peer(id, port);
    Bitfield all{meta.piece_count()};
    for (int p = 0; p < meta.piece_count(); ++p) all.set(p);
    pipeline.on_bitfield(peer, all);
    peer.peer_choking = false;
    pipeline.evaluate_interest(peer);
    return peer;
  }

  static std::set<std::pair<int, int>> requested(const PeerConnection& peer) {
    std::set<std::pair<int, int>> blocks;
    for (const auto& o : peer.outstanding) blocks.emplace(o.piece, o.block);
    return blocks;
  }
};

TEST_F(RequestPipelineUnit, FinishesPiecesInProgressFirst) {
  PeerConnection& a = add_seed(0xa, 7000);
  EXPECT_TRUE(a.am_interested);
  ASSERT_EQ(a.outstanding.size(), 8u);  // pipeline_depth
  const int piece = a.outstanding.front().piece;
  for (std::size_t i = 0; i < a.outstanding.size(); ++i) {
    EXPECT_EQ(a.outstanding[i].piece, piece);
    EXPECT_EQ(a.outstanding[i].block, static_cast<int>(i));
  }
  // A second peer finishes the same piece before the selector starts another.
  PeerConnection& b = add_seed(0xb, 7001);
  ASSERT_EQ(b.outstanding.size(), 8u);
  for (std::size_t i = 0; i < b.outstanding.size(); ++i) {
    EXPECT_EQ(b.outstanding[i].piece, piece);
    EXPECT_EQ(b.outstanding[i].block, static_cast<int>(i) + 8);
  }
  PeerConnection& c = add_seed(0xc, 7002);
  ASSERT_FALSE(c.outstanding.empty());
  EXPECT_NE(c.outstanding.front().piece, piece);
  EXPECT_EQ(pipeline.availability(piece), 3);
}

TEST_F(RequestPipelineUnit, EndgameStartsAtTheThresholdAndCancelsCopies) {
  const int last = 5;
  for (int p = 0; p < meta.piece_count(); ++p) {
    if (p != last) store.mark_piece(p);
  }
  PeerConnection& a = add_seed(0xa, 7000);
  PeerConnection& b = add_seed(0xb, 7001);
  ASSERT_EQ(a.outstanding.size() + b.outstanding.size(), 16u);  // every block of `last`

  // 16 blocks outstanding: one more than this threshold allows.
  config.endgame_block_threshold = 15;
  PeerConnection& c = add_seed(0xc, 7002);
  EXPECT_TRUE(c.outstanding.empty());

  config.endgame_block_threshold = 16;
  pipeline.fill_requests(c);
  ASSERT_EQ(c.outstanding.size(), 8u);
  for (const auto& o : c.outstanding) {
    EXPECT_EQ(o.piece, last);
    EXPECT_TRUE(requested(a).count({o.piece, o.block}) + requested(b).count({o.piece, o.block}));
  }

  // The first copy of a block to land cancels the copies elsewhere.
  const auto [piece, block] = *requested(c).begin();
  PeerConnection& first = requested(a).count({piece, block}) ? a : b;
  pipeline.settle(first, piece, block);
  pipeline.on_block(first, piece, block);
  EXPECT_EQ(pipeline.block(piece, block), State::kReceived);
  EXPECT_EQ(requested(c).count({piece, block}), 0u);
  EXPECT_EQ(c.outstanding.size(), 7u);
}

TEST_F(RequestPipelineUnit, ReturnOutstandingRequeuesTheBlocks) {
  PeerConnection& a = add_seed(0xa, 7000);
  const auto blocks = requested(a);
  ASSERT_EQ(blocks.size(), 8u);
  for (const auto& [piece, block] : blocks) {
    EXPECT_EQ(pipeline.block(piece, block), State::kRequested);
  }
  pipeline.return_outstanding(a);
  EXPECT_TRUE(a.outstanding.empty());
  for (const auto& [piece, block] : blocks) {
    EXPECT_EQ(pipeline.block(piece, block), State::kUnrequested);
  }
  PeerConnection& b = add_seed(0xb, 7001);
  EXPECT_EQ(requested(b), blocks);  // the same blocks go to the next peer
}

TEST_F(RequestPipelineUnit, TimedOutRequestsRequeueAndSnub) {
  PeerConnection& a = add_seed(0xa, 7000);
  const auto blocks = requested(a);
  run_for(30.0);
  // Nothing is older than a cutoff before the requests were made.
  EXPECT_TRUE(pipeline.expire_requests(a, 0).empty());
  EXPECT_EQ(a.outstanding.size(), 8u);
  const std::vector<int> pieces = pipeline.expire_requests(a, world.sim.now());
  EXPECT_EQ(pieces, std::vector<int>{blocks.begin()->first});
  EXPECT_TRUE(a.outstanding.empty());
  EXPECT_TRUE(a.snubbed);
  EXPECT_EQ(stats.blocks_requeued, 8u);
  for (const auto& [piece, block] : blocks) {
    EXPECT_EQ(pipeline.block(piece, block), State::kUnrequested);
  }
  PeerConnection& b = add_seed(0xb, 7001);
  EXPECT_EQ(requested(b), blocks);
}

TEST_F(RequestPipelineUnit, BannedPeersGetNoRequests) {
  for (int i = 0; i < 3; ++i) enforcer.strike(0xa, -1);
  PeerConnection& a = add_seed(0xa, 7000);
  EXPECT_TRUE(a.am_interested);
  EXPECT_TRUE(a.outstanding.empty());
}

TEST_F(RequestPipelineUnit, AvailabilityFollowsBitfieldsHavesAndDepartures) {
  PeerConnection& a = add_peer(0xa, 7000);
  pipeline.on_have(a, 3);  // a HAVE before any bitfield counts too
  EXPECT_EQ(pipeline.availability(3), 1);
  Bitfield bits{meta.piece_count()};
  bits.set(1);
  pipeline.on_bitfield(a, bits);  // replaces what a advertised before
  EXPECT_EQ(pipeline.availability(3), 0);
  EXPECT_EQ(pipeline.availability(1), 1);
  pipeline.on_have(a, 1);  // already counted
  EXPECT_EQ(pipeline.availability(1), 1);
  pipeline.on_peer_gone(a);
  EXPECT_EQ(pipeline.availability(1), 0);
}

}  // namespace
}  // namespace wp2p::bt
