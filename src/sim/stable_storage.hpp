// Simulated stable storage for resume snapshots — the fault model under
// bt::ResumeStore.
//
// Real mobile flash is where session persistence goes to die: the OS kills
// the app mid-write (torn records), an eager cache acks a write that never
// reaches the medium (stale snapshots), and a busy eMMC stalls a commit for
// seconds. StableStorage models exactly those three failure modes over a
// bounded append-only journal so the resume path above it can be driven
// through every degradation it claims to survive.
//
// Journal format. Each append produces a Record carrying a monotonically
// increasing sequence number and a checksum chained from its predecessor:
//
//   checksum(r) = fnv1a(payload, seed = prev_checksum)
//
// A torn write journals a truncated payload under the full-payload checksum,
// so verification fails on load; a stale drop acks the caller but never
// journals anything, so load() simply finds an older snapshot. load() walks
// the journal newest-to-oldest and returns the newest record whose chain
// checksum verifies, counting everything younger as discarded.
//
// At-rest integrity is modelled separately: rot_piece() marks a payload
// region (a verified piece) as silently rotted on the medium, and
// piece_intact() lets a trust-but-verify resume path discover the rot by
// re-checking sampled pieces.
//
// All latency and fault draws come from a stream forked off the simulator's
// Rng at construction, so a run remains a pure function of its seed and a
// simulation that never constructs a StableStorage draws nothing extra.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "trace/recorder.hpp"
#include "trace/trace.hpp"

namespace wp2p::sim {

struct StorageParams {
  double torn_write_prob = 0.0;   // journal a truncated record instead
  double stale_drop_prob = 0.0;   // ack the caller, never journal
  double stall_prob = 0.0;        // append pays an extra 2 s stall
  int journal_capacity = 8;       // bounded journal; oldest records evicted
};

class StableStorage {
 public:
  struct Record {
    std::uint64_t seq = 0;
    std::string payload;
    std::uint64_t prev = 0;      // checksum of the predecessor record
    std::uint64_t checksum = 0;  // chained checksum of the FULL payload
    bool torn = false;           // payload truncated by a torn write
  };

  struct Stats {
    std::uint64_t writes = 0;
    std::uint64_t torn_writes = 0;
    std::uint64_t stale_drops = 0;
    std::uint64_t stalls = 0;
    std::uint64_t loads = 0;
    std::uint64_t records_discarded = 0;  // checksum-invalid records skipped
  };

  struct LoadResult {
    std::optional<Record> record;  // newest checksum-valid record, if any
    int discarded = 0;             // younger records rejected by the chain
  };

  StableStorage(Simulator& sim, StorageParams params, std::string label)
      : sim_{sim}, params_{params}, label_{std::move(label)}, rng_{sim.rng().fork()} {}

  StableStorage(const StableStorage&) = delete;
  StableStorage& operator=(const StableStorage&) = delete;

  // FNV-1a over `data`, chained from `seed` — the journal checksum.
  static std::uint64_t chain_checksum(std::uint64_t seed, const std::string& data) {
    std::uint64_t h = seed ^ 0xcbf29ce484222325ULL;
    for (unsigned char byte : data) {
      h ^= byte;
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  // Commit `payload` asynchronously; `done(seq)` fires when the device acks.
  // The ack does NOT promise durability — a stale drop acks without
  // journaling and a torn write journals garbage, exactly like real storage
  // that lies. Returns the sequence number assigned to the write.
  std::uint64_t append(std::string payload, std::function<void(std::uint64_t)> done = {}) {
    const std::uint64_t seq = ++next_seq_;
    const bool torn = rng_.bernoulli(params_.torn_write_prob);
    const bool stale = !torn && rng_.bernoulli(params_.stale_drop_prob);
    const bool stalled = rng_.bernoulli(params_.stall_prob);
    SimTime latency = kWriteLatency;
    if (stalled) {
      latency += kStall;
      ++stats_.stalls;
    }
    sim_.after(latency, [this, seq, payload = std::move(payload), torn, stale,
                         done = std::move(done)]() mutable {
      commit(seq, std::move(payload), torn, stale);
      if (done) done(seq);
    });
    return seq;
  }

  // Walk the journal newest-to-oldest; the newest record whose chained
  // checksum verifies wins. Everything younger is discarded (and counted) —
  // the degrade-to-older-snapshot path the resume layer builds on.
  LoadResult load() {
    ++stats_.loads;
    LoadResult result;
    for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
      if (chain_checksum(it->prev, it->payload) == it->checksum) {
        result.record = *it;
        break;
      }
      ++result.discarded;
    }
    stats_.records_discarded += static_cast<std::uint64_t>(result.discarded);
    WP2P_TRACE(sim_, trace::event(trace::Component::kStore, trace::Kind::kStoreLoad)
                         .at(label_)
                         .why(result.record ? "ok" : "empty")
                         .with("seq", result.record
                                          ? static_cast<double>(result.record->seq)
                                          : -1.0)
                         .with("discarded", static_cast<double>(result.discarded))
                         .with("journal", static_cast<double>(journal_.size())));
    return result;
  }

  // At-rest rot: piece `i`'s stored bytes silently decayed on the medium.
  void rot_piece(int piece) { rotted_.insert(piece); }
  bool piece_intact(int piece) const { return rotted_.count(piece) == 0; }
  std::size_t rotted_pieces() const { return rotted_.size(); }

  const Stats& stats() const { return stats_; }
  std::size_t journal_size() const { return journal_.size(); }
  std::uint64_t last_seq() const { return next_seq_; }
  const StorageParams& params() const { return params_; }

 private:
  void commit(std::uint64_t seq, std::string payload, bool torn, bool stale) {
    ++stats_.writes;
    [[maybe_unused]] const char* outcome = "ok";
    if (stale) {
      // The device acked but the write never reached the journal.
      ++stats_.stale_drops;
      outcome = "stale";
    } else {
      Record rec;
      rec.seq = seq;
      rec.prev = journal_.empty() ? 0 : journal_.back().checksum;
      rec.checksum = chain_checksum(rec.prev, payload);  // over the FULL payload
      rec.torn = torn;
      if (torn) {
        ++stats_.torn_writes;
        outcome = "torn";
        payload.resize(payload.size() / 2);  // the tail never made it
      }
      rec.payload = std::move(payload);
      journal_.push_back(std::move(rec));
      while (static_cast<int>(journal_.size()) > params_.journal_capacity) {
        journal_.pop_front();
      }
    }
    WP2P_TRACE(sim_, trace::event(trace::Component::kStore, trace::Kind::kStoreWrite)
                         .at(label_)
                         .why(outcome)
                         .with("seq", static_cast<double>(seq))
                         .with("journal", static_cast<double>(journal_.size())));
  }

  static constexpr SimTime kWriteLatency = milliseconds(5.0);  // commit time per append
  static constexpr SimTime kStall = seconds(2.0);  // the extra stall, when drawn

  Simulator& sim_;
  StorageParams params_;
  std::string label_;
  Rng rng_;
  std::deque<Record> journal_;
  std::set<int> rotted_;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace wp2p::sim
