// Bounded last-known-good peer endpoint cache.
//
// The client touches an entry whenever a handshake establishes (and when
// payload arrives), so the cache always holds the most recently *proven*
// listen endpoints. It is plain member data of the client's Discovery —
// like the piece store it survives stop()/start(), which is exactly the
// crash/restart path the fault layer exercises — and it is consulted only
// when every tracker tier is unreachable (see Discovery::maybe_bootstrap).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "bt/metainfo.hpp"
#include "net/address.hpp"
#include "sim/time.hpp"

namespace wp2p::bt {

class BootstrapCache {
 public:
  struct Entry {
    net::Endpoint endpoint;
    PeerId peer_id = 0;
    sim::SimTime last_good = 0;
  };

  explicit BootstrapCache(std::size_t capacity) : capacity_(capacity) {}

  // Records `endpoint` as good for `id` now. An existing entry for the same
  // identity is re-pointed (a moved host keeps its id but changes address);
  // the oldest entry is evicted when the cache is full. Most recent last.
  void touch(net::Endpoint endpoint, PeerId id, sim::SimTime now) {
    if (capacity_ == 0 || !endpoint.addr.valid() || id == 0) return;
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [&](const Entry& e) { return e.peer_id == id; });
    if (it == entries_.end()) {
      it = std::find_if(entries_.begin(), entries_.end(),
                        [&](const Entry& e) { return e.endpoint == endpoint; });
    }
    Entry entry{endpoint, id, now};
    if (it != entries_.end()) entries_.erase(it);
    if (entries_.size() >= capacity_) entries_.erase(entries_.begin());
    entries_.push_back(entry);
  }

  // Drops every entry held for `id` (used when the peer is banned).
  void remove(PeerId id) {
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&](const Entry& e) { return e.peer_id == id; }),
                   entries_.end());
  }

  // Drops entries whose last proof of life is older than `ttl` at `now`. A
  // resume after a long suspend prunes before dialing, so a stale cell's
  // addresses are never re-dialed. Returns the number of entries dropped.
  std::size_t prune(sim::SimTime now, sim::SimTime ttl) {
    const std::size_t before = entries_.size();
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&](const Entry& e) { return now - e.last_good > ttl; }),
                   entries_.end());
    return before - entries_.size();
  }

  // Resume-restore path: reinsert a snapshotted entry with its original
  // timestamp (touch() would stamp `now` and defeat TTL aging on load).
  void restore(const Entry& entry) {
    if (capacity_ == 0 || !entry.endpoint.addr.valid() || entry.peer_id == 0) return;
    if (entries_.size() >= capacity_) entries_.erase(entries_.begin());
    entries_.push_back(entry);
  }

  const std::vector<Entry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

 private:
  std::size_t capacity_;
  std::vector<Entry> entries_;  // ordered oldest-touch first
};

}  // namespace wp2p::bt
