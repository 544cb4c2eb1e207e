// The download side of one bt::Client: the swarm availability of each piece,
// the request state of each block of the pieces in progress, and the piece
// selector. It keeps pipeline_depth requests outstanding per unchoking peer,
// finishes pieces in progress before it starts one, duplicates the last
// requests in end-game and cancels the copies as blocks land, and requeues
// requests that time out. It sends its requests and cancels on the
// PeerConnection itself and never calls back into the client.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bt/client_context.hpp"
#include "bt/enforcer.hpp"
#include "bt/selector.hpp"
#include "util/assert.hpp"

namespace wp2p::bt {

class RequestPipeline {
 public:
  enum class BlockState : std::uint8_t { kUnrequested, kRequested, kReceived };

  RequestPipeline(const ClientContext& ctx, const Enforcer& enforcer);

  void set_selector(std::unique_ptr<PieceSelector> selector) {
    WP2P_ASSERT(selector != nullptr);
    selector_ = std::move(selector);
  }
  PieceSelector& selector() { return *selector_; }

  void on_bitfield(PeerConnection& peer, const Bitfield& pieces) {
    if (peer.bitfield_counted) add_availability(peer.peer_bitfield, -1);
    peer.peer_bitfield = pieces;
    peer.bitfield_counted = true;
    add_availability(peer.peer_bitfield, +1);
  }
  void on_have(PeerConnection& peer, int piece);
  void on_peer_gone(PeerConnection& peer) {
    if (peer.bitfield_counted) add_availability(peer.peer_bitfield, -1);
    return_outstanding(peer);
  }

  // Sends Interested or NotInterested as that changes, then fills the
  // pipeline of a peer that unchokes us.
  void evaluate_interest(PeerConnection& peer);
  void fill_requests(PeerConnection& peer);
  void return_outstanding(PeerConnection& peer) {
    for (const auto& o : peer.outstanding) requeue(o.piece, o.block);
    peer.outstanding.clear();
  }

  // A block arrived from `peer`: its request is settled, whatever the store
  // makes of the block.
  void settle(PeerConnection& peer, int piece, int block) {
    std::erase_if(peer.outstanding, [&](const PeerConnection::Outstanding& o) {
      return o.piece == piece && o.block == block;
    });
  }
  // The store took the block: mark it received, cancel copies elsewhere.
  void on_block(PeerConnection& source, int piece, int block);
  void drop_piece(int piece) {  // completed, or failed verification
    active_.erase(piece);
    active_pieces_.reset(piece);
  }
  void clear() {  // the download completed
    active_.clear();
    active_pieces_.clear();
  }

  // Requeues `peer`'s requests older than `cutoff` and snubs it; returns the
  // pieces they were for.
  std::vector<int> expire_requests(PeerConnection& peer, sim::SimTime cutoff);

  // Visible for tests.
  int availability(int piece) const { return availability_[static_cast<std::size_t>(piece)]; }
  std::optional<BlockState> block(int piece, int block) const {
    auto it = active_.find(piece);
    if (it == active_.end()) return std::nullopt;
    return it->second[static_cast<std::size_t>(block)];
  }

 private:
  struct BlockRef {
    int piece;
    int block;
  };
  std::optional<BlockRef> next_block_for(PeerConnection& peer);
  std::optional<BlockRef> endgame_block_for(PeerConnection& peer);
  BlockState& block_state(int piece, int block) {  // activates the piece if new
    auto [it, inserted] = active_.try_emplace(
        piece, static_cast<std::size_t>(ctx_.store.blocks_in_piece(piece)),
        BlockState::kUnrequested);
    if (inserted) active_pieces_.set(piece);
    return it->second[static_cast<std::size_t>(block)];
  }
  void requeue(int piece, int block) {
    auto it = active_.find(piece);
    if (it == active_.end()) return;  // piece completed meanwhile
    auto& state = it->second[static_cast<std::size_t>(block)];
    if (state == BlockState::kRequested) state = BlockState::kUnrequested;
  }
  void add_availability(const Bitfield& pieces, int delta) {
    pieces.for_each_set([&](int i) { availability_[static_cast<std::size_t>(i)] += delta; });
  }

  const ClientContext& ctx_;
  const Enforcer& enforcer_;
  std::unique_ptr<PieceSelector> selector_;
  std::vector<int> availability_;                  // remote copies per piece
  std::map<int, std::vector<BlockState>> active_;  // pieces in progress
  Bitfield active_pieces_;  // mirror of active_ keys for word-wise candidate scans
};

}  // namespace wp2p::bt
