#include "bt/request_pipeline.hpp"

#include <algorithm>
#include <bit>

namespace wp2p::bt {

RequestPipeline::RequestPipeline(const ClientContext& ctx, const Enforcer& enforcer)
    : ctx_{ctx},
      enforcer_{enforcer},
      selector_{std::make_unique<RarestFirstSelector>()},
      availability_(static_cast<std::size_t>(ctx.store.piece_count()), 0),
      active_pieces_{ctx.store.piece_count()} {}

void RequestPipeline::on_have(PeerConnection& peer, int piece) {
  if (!peer.peer_bitfield.test(piece)) {
    peer.peer_bitfield.set(piece);
    if (peer.bitfield_counted) {
      ++availability_[static_cast<std::size_t>(piece)];
    } else {
      peer.bitfield_counted = true;
      // First availability info from this peer arrived as a HAVE.
      add_availability(peer.peer_bitfield, +1);
    }
  }
  if (!peer.am_interested) evaluate_interest(peer);
}

void RequestPipeline::evaluate_interest(PeerConnection& peer) {
  if (!peer.app_established()) return;
  const PieceStore& store = ctx_.store;
  const bool want =
      !store.complete() && Bitfield::has_missing_piece(peer.peer_bitfield, store.bitfield());
  if (want != peer.am_interested) {
    peer.am_interested = want;
    peer.send(WireMessage::simple(want ? MsgType::kInterested : MsgType::kNotInterested));
  }
  if (want && !peer.peer_choking) fill_requests(peer);
}

std::optional<RequestPipeline::BlockRef> RequestPipeline::next_block_for(PeerConnection& peer) {
  const PieceStore& store = ctx_.store;
  if (store.complete() || peer.peer_choking || !peer.am_interested) return std::nullopt;
  // 1) Strict priority: finish pieces already in progress.
  for (auto& [piece, blocks] : active_) {
    if (!peer.peer_bitfield.test(piece)) continue;
    for (int b = 0; b < static_cast<int>(blocks.size()); ++b) {
      if (blocks[static_cast<std::size_t>(b)] == BlockState::kUnrequested) {
        return BlockRef{piece, b};
      }
    }
  }
  // 2) Start a new piece chosen by the selection policy. Candidates are
  // peer & ~have & ~active, collected a word at a time: per-candidate cost no
  // longer pays a map lookup per piece of the torrent.
  std::vector<int> candidates;
  const Bitfield& have = store.bitfield();
  for (int w = 0; w < peer.peer_bitfield.word_count(); ++w) {
    std::uint64_t cand =
        peer.peer_bitfield.word(w) & ~have.word(w) & ~active_pieces_.word(w);
    while (cand != 0) {
      candidates.push_back(w * 64 + std::countr_zero(cand));
      cand &= cand - 1;
    }
  }
  if (candidates.empty()) return endgame_block_for(peer);
  SelectionContext ctx{candidates, availability_, store.completed_fraction(), ctx_.rng};
  const int piece = selector_->pick(ctx);
  if (piece < 0) return std::nullopt;
  block_state(piece, 0);  // activate
  return BlockRef{piece, 0};
}

// End-game mode: every needed block is requested somewhere, only stragglers
// remain — duplicate them to this peer too (duplicates are cancelled as the
// first copy of each block lands).
std::optional<RequestPipeline::BlockRef> RequestPipeline::endgame_block_for(
    PeerConnection& peer) {
  const int threshold = ctx_.config.endgame_block_threshold;
  if (threshold <= 0) return std::nullopt;
  int requested = 0;
  for (const auto& [piece, blocks] : active_) {
    for (BlockState s : blocks) {
      if (s == BlockState::kUnrequested) return std::nullopt;  // normal work remains
      if (s == BlockState::kRequested) ++requested;
    }
  }
  if (requested == 0 || requested > threshold) return std::nullopt;
  for (const auto& [piece, blocks] : active_) {
    if (!peer.peer_bitfield.test(piece)) continue;
    for (int b = 0; b < static_cast<int>(blocks.size()); ++b) {
      if (blocks[static_cast<std::size_t>(b)] != BlockState::kRequested) continue;
      const bool already_mine =
          std::any_of(peer.outstanding.begin(), peer.outstanding.end(),
                      [&](const PeerConnection::Outstanding& o) {
                        return o.piece == piece && o.block == b;
                      });
      if (!already_mine) return BlockRef{piece, b};
    }
  }
  return std::nullopt;
}

void RequestPipeline::fill_requests(PeerConnection& peer) {
  if (!peer.app_established()) return;
  if (enforcer_.is_banned(peer.remote_id)) return;  // banned peers get no requests, ever
  while (static_cast<int>(peer.outstanding.size()) < ctx_.config.pipeline_depth) {
    auto next = next_block_for(peer);
    if (!next) break;
    block_state(next->piece, next->block) = BlockState::kRequested;
    peer.outstanding.push_back({next->piece, next->block, ctx_.sim.now()});
    WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtRequest)
                             .with("peer_id", static_cast<double>(peer.remote_id & 0xffffffffu))
                             .with("piece", static_cast<double>(next->piece))
                             .with("block", static_cast<double>(next->block)));
    peer.send(WireMessage::request(next->piece,
                                   static_cast<std::int64_t>(next->block) * kBlockSize,
                                   ctx_.store.block_size(next->piece, next->block)));
  }
}

void RequestPipeline::on_block(PeerConnection& source, int piece, int block) {
  if (auto it = active_.find(piece); it != active_.end()) {
    it->second[static_cast<std::size_t>(block)] = BlockState::kReceived;
  }
  for (const auto& other : ctx_.peers) {
    if (other.get() == &source) continue;
    const auto before = other->outstanding.size();
    settle(*other, piece, block);
    if (other->outstanding.size() != before && other->app_established()) {
      other->send(WireMessage::cancel(piece, static_cast<std::int64_t>(block) * kBlockSize,
                                      ctx_.store.block_size(piece, block)));
    }
  }
}

std::vector<int> RequestPipeline::expire_requests(PeerConnection& peer, sim::SimTime cutoff) {
  // Blocks promised long ago go back to the pool. A peer that let a request
  // expire is snubbed until it delivers again.
  std::vector<int> timed_out;
  auto& out = peer.outstanding;
  for (auto it = out.begin(); it != out.end();) {
    if (it->requested_at >= cutoff) {
      ++it;
      continue;
    }
    requeue(it->piece, it->block);
    ++ctx_.stats.blocks_requeued;
    peer.snubbed = true;
    if (std::find(timed_out.begin(), timed_out.end(), it->piece) == timed_out.end()) {
      timed_out.push_back(it->piece);
    }
    it = out.erase(it);
  }
  return timed_out;
}

}  // namespace wp2p::bt
