// Crash-consistent session persistence for a client.
//
// A ResumeSnapshot captures everything a mobile host's session is worth
// carrying across a suspend, app kill, or power cycle: the verified bitfield,
// block-level partial-piece state (including which blocks arrived damaged, so
// a restored piece still fails verification), the peer identity whose credit
// standing the paper shows is the mobile host's most valuable asset, the
// credit/strike/ban carry-over, and the bootstrap cache of last-known-good
// endpoints. Snapshots serialize to a line-oriented text form and are
// journaled through sim::StableStorage, whose chained checksums are what let
// load() reject torn or corrupt records and degrade to an older snapshot or
// a cold restart instead of trusting garbage.
//
// The store itself is deliberately dumb: save() serializes and appends,
// load() returns the newest checksum-valid snapshot matching the torrent's
// info hash. Policy — what to restore, what to re-verify, when to degrade —
// lives in bt::Client's resume path.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bt/bootstrap_cache.hpp"
#include "bt/credit_ledger.hpp"
#include "bt/metainfo.hpp"
#include "bt/piece_store.hpp"
#include "sim/stable_storage.hpp"

namespace wp2p::bt {

struct ResumeSnapshot {
  InfoHash info_hash = 0;
  PeerId peer_id = 0;
  sim::SimTime taken_at = 0;
  int piece_count = 0;                             // torrent shape sanity check
  std::vector<int> have;                           // verified piece indices
  std::vector<PieceStore::PartialState> partials;  // in-progress pieces
  std::vector<CreditLedger::Exported> credit;
  std::vector<std::pair<PeerId, int>> strikes;     // sorted by peer id
  std::vector<PeerId> banned;                      // sorted
  std::vector<BootstrapCache::Entry> bootstrap;    // oldest-touch first

  std::string serialize() const;
  static std::optional<ResumeSnapshot> parse(std::string_view text);
};

class ResumeStore {
 public:
  struct Stats {
    std::uint64_t saves = 0;
    std::uint64_t load_failures = 0;  // journal empty/rejected or wrong torrent
  };

  struct Loaded {
    ResumeSnapshot snapshot;
    std::uint64_t seq = 0;  // journal sequence the snapshot came from
    int discarded = 0;      // younger records the checksum chain rejected
  };

  ResumeStore(sim::StableStorage& storage, InfoHash info_hash)
      : storage_{storage}, info_hash_{info_hash} {}

  ResumeStore(const ResumeStore&) = delete;
  ResumeStore& operator=(const ResumeStore&) = delete;

  // Journal a snapshot; `done(seq)` fires when the device acks (which, per
  // the storage fault model, is not a durability promise).
  std::uint64_t save(const ResumeSnapshot& snapshot,
                     std::function<void(std::uint64_t)> done = {});

  // Newest checksum-valid snapshot for this torrent, or nullopt → cold start.
  std::optional<Loaded> load();

  sim::StableStorage& storage() { return storage_; }
  const Stats& stats() const { return stats_; }

 private:
  sim::StableStorage& storage_;
  InfoHash info_hash_;
  Stats stats_;
};

}  // namespace wp2p::bt
