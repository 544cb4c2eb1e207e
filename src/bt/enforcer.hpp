// Protocol enforcement for one bt::Client. Evidence of misbehaviour counts
// up on each PeerConnection; every threshold crossing traces a detection and
// strikes the peer's identity, and kBanThreshold strikes ban it. A corrupt
// piece strikes exactly the peers that supplied its damaged blocks (smart
// ban). A peer that shows signs of having moved gets a mobility grace window
// that holds its stall and liar evidence.
//
// Its one way into the client is the ban hook: the client then forgets the
// identity in Discovery and cuts its connections loose.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bt/client_context.hpp"
#include "bt/resume_store.hpp"

namespace wp2p::bt {

class Enforcer {
 public:
  // A banned peer is disconnected, never re-dialed, refused on handshake,
  // skipped in announce responses and given no unchoke slot.
  static constexpr int kBanThreshold = 3;

  Enforcer(const ClientContext& ctx, std::function<void(PeerId)> on_ban)
      : ctx_{ctx}, on_ban_{std::move(on_ban)} {}
  Enforcer(const Enforcer&) = delete;  // deferred strikes hold its address
  Enforcer& operator=(const Enforcer&) = delete;

  bool is_banned(PeerId id) const { return banned_.count(id) > 0; }
  // A corruption strike names its piece; an enforcement strike, its cause.
  void strike(PeerId id, int piece, const char* cause = nullptr);

  // Counts one piece of evidence; a threshold crossing traces a detection
  // and (unless unsafe_no_enforcement) strikes from a fresh event.
  void record_offense(PeerConnection& peer, Offense offense);
  // Evidence the client hands over as it sees it: a request while choked;
  // a request past the backlog cap (true: drop it); an unchoke; the pieces
  // that timed out in one maintenance pass; one stall-audit tick.
  void note_choked_request(PeerConnection& peer);
  bool backlog_full(PeerConnection& peer);
  void note_unchoke_churn(PeerConnection& peer);
  void note_timeouts(PeerConnection& peer, const std::vector<int>& pieces);
  void audit_stall(PeerConnection& peer);

  bool in_grace(PeerId id) const {
    auto it = grace_until_.find(id);
    return id != 0 && it != grace_until_.end() && ctx_.sim.now() < it->second;
  }
  void grant_grace(PeerId id, const char* cause);

  void record_contributor(PeerId id, int piece, int block) {
    auto [it, inserted] = contributors_.try_emplace(
        piece, static_cast<std::size_t>(ctx_.store.blocks_in_piece(piece)), PeerId{0});
    it->second[static_cast<std::size_t>(block)] = id;
  }
  void strike_contributors(int piece);  // once each, for the damaged blocks
  void forget_piece(int piece) { contributors_.erase(piece); }

  void save(ResumeSnapshot& snap) const {
    snap.strikes.assign(strikes_.begin(), strikes_.end());
    std::sort(snap.strikes.begin(), snap.strikes.end());
    snap.banned.assign(banned_.begin(), banned_.end());
    std::sort(snap.banned.begin(), snap.banned.end());
  }
  void restore(const ResumeSnapshot& snap) {
    for (const auto& [peer, count] : snap.strikes) strikes_[peer] = count;
    banned_.insert(snap.banned.begin(), snap.banned.end());
  }

 private:
  const ClientContext& ctx_;
  std::function<void(PeerId)> on_ban_;
  std::unordered_map<PeerId, int> strikes_;
  std::unordered_set<PeerId> banned_;
  std::unordered_map<PeerId, sim::SimTime> grace_until_;  // identity -> window end
  // Who supplied each block of a piece in progress.
  std::map<int, std::vector<PeerId>> contributors_;
};

}  // namespace wp2p::bt
