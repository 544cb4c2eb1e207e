// One PEX round's delta per recipient, computed by a single merge walk.
//
// A round builds the live advert set once, ordered by endpoint. Each
// recipient's baseline (PeerConnection::pex_sent) is ordered the same way, so
// walking both side by side yields the recipient's added and dropped lists in
// one pass, in the orders the wire message and the trace carry them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <vector>

#include "bt/wire.hpp"
#include "net/address.hpp"

namespace wp2p::bt {

// Orders a round's adverts by endpoint. `entries` come in peer order; where
// two name the same endpoint the later one wins, as repeated assignment into
// a map keyed by endpoint would have it.
inline std::vector<PexPeer> sorted_adverts(std::vector<PexPeer> entries) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const PexPeer& a, const PexPeer& b) { return a.endpoint < b.endpoint; });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i + 1 < entries.size() && entries[i + 1].endpoint == entries[i].endpoint) continue;
    entries[kept++] = entries[i];
  }
  entries.resize(kept);
  return entries;
}

// What the recipient `self_id`, listening at `self`, must be told about
// `current` (sorted by sorted_adverts) given what it was told before (`sent`).
// `added`: entries of `current` other than the recipient itself that `sent`
// lacks or lists under another id, in `current` order. `dropped`: endpoints of
// `sent` that `current` lacks, in `sent` order.
inline void pex_delta(const std::vector<PexPeer>& current,
                      const std::map<net::Endpoint, PeerId>& sent, net::Endpoint self,
                      PeerId self_id, std::vector<PexPeer>& added,
                      std::vector<net::Endpoint>& dropped) {
  auto cur = current.begin();
  auto old = sent.begin();
  while (cur != current.end() || old != sent.end()) {
    const bool cur_first =
        old == sent.end() || (cur != current.end() && cur->endpoint < old->first);
    const bool old_first =
        cur == current.end() || (old != sent.end() && old->first < cur->endpoint);
    if (old_first) {
      dropped.push_back(old->first);
      ++old;
      continue;
    }
    const bool itself = cur->endpoint == self || cur->peer_id == self_id;
    const bool known = !cur_first && old->second == cur->peer_id;
    if (!itself && !known) added.push_back(*cur);
    if (!cur_first) ++old;
    ++cur;
  }
}

}  // namespace wp2p::bt
