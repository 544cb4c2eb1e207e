// Differential tests for the two walks bt::Client makes over its peers every
// pump tick and every PEX round. Each oracle below is the loop the client ran
// before it learned to skip idle peers and to merge sorted sets, copied over a
// small model, the way tests/sim/binary_heap_queue.hpp keeps the old heap.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "bt/pex_delta.hpp"
#include "bt/upload_rotation.hpp"
#include "sim/rng.hpp"

namespace wp2p::bt {
namespace {

// --- Upload pump ---------------------------------------------------------------

struct ModelPeer {
  int queue = 0;         // queued upload requests
  bool unchoked = false;
  int backlog = 0;       // grows by one per serve, like the TCP send queue
  int backlog_cap = 0;   // servable while backlog <= backlog_cap
};

struct Model {
  std::vector<ModelPeer> peers;
  int tries = 0;       // token-bucket consumes attempted so far
  int refuse_at = -1;  // the attempt the bucket refuses, or -1 for none
  std::vector<std::pair<std::size_t, Visit>> log;  // visits to peers with queued work

  bool eligible(const ModelPeer& p) const { return p.unchoked && p.backlog <= p.backlog_cap; }
  bool refuse() { return tries++ == refuse_at; }
  void serve(ModelPeer& p) {
    --p.queue;
    ++p.backlog;
  }
  bool any_pending() const {
    for (const ModelPeer& p : peers) {
      if (p.queue > 0) return true;
    }
    return false;
  }
};

// The pump as it stepped over every index. Returns the next cursor.
std::size_t stepping_pump(Model& m, std::size_t upload_cursor) {
  if (m.peers.empty()) return upload_cursor;
  if (!m.any_pending()) return upload_cursor;
  std::size_t idle_streak = 0;
  while (idle_streak < m.peers.size()) {
    const std::size_t index = upload_cursor % m.peers.size();
    ModelPeer& peer = m.peers[index];
    upload_cursor = (upload_cursor + 1) % m.peers.size();
    bool served = false;
    if (peer.queue > 0) {
      if (m.eligible(peer)) {
        if (m.refuse()) {
          m.log.emplace_back(index, Visit::kStop);
          return upload_cursor;
        }
        m.serve(peer);
        served = true;
      }
      m.log.emplace_back(index, served ? Visit::kServed : Visit::kIdle);
    }
    idle_streak = served ? 0 : idle_streak + 1;
  }
  return upload_cursor;
}

// The pump as bt::Client now runs it: visit only peers with queued work.
std::size_t walking_pump(Model& m, std::size_t upload_cursor) {
  if (m.peers.empty()) return upload_cursor;
  if (!m.any_pending()) return upload_cursor;
  const std::size_t n = m.peers.size();
  const auto next_pending = [&](std::size_t from) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (from + k) % n;
      if (m.peers[i].queue > 0) return i;
    }
    return n;
  };
  const auto visit = [&](std::size_t index) {
    ModelPeer& peer = m.peers[index];
    EXPECT_GT(peer.queue, 0) << "visited a peer with nothing queued";
    Visit outcome = Visit::kIdle;
    if (m.eligible(peer)) {
      outcome = m.refuse() ? Visit::kStop : Visit::kServed;
      if (outcome == Visit::kServed) m.serve(peer);
    }
    m.log.emplace_back(index, outcome);
    return outcome;
  };
  return walk_round_robin(n, upload_cursor, next_pending, visit);
}

Model random_model(sim::Rng& rng) {
  Model m;
  m.peers.resize(1 + rng.below(64));
  const double busy = rng.uniform(0.0, 1.0);  // share of peers with queued work
  for (ModelPeer& p : m.peers) {
    if (rng.bernoulli(busy)) p.queue = 1 + static_cast<int>(rng.below(4));
    p.unchoked = rng.bernoulli(0.6);
    p.backlog = static_cast<int>(rng.below(3));
    p.backlog_cap = static_cast<int>(rng.below(5));
  }
  if (rng.bernoulli(0.7)) m.refuse_at = static_cast<int>(rng.below(40));
  return m;
}

TEST(UploadWalk, MatchesSteppingPumpOracle) {
  sim::Rng rng{20240611};
  for (int trial = 0; trial < 20000; ++trial) {
    Model stepping = random_model(rng);
    Model walking = stepping;
    // Drops shrink peers_ under the cursor, so it may start at or past n.
    const std::size_t cursor = rng.below(3 * stepping.peers.size());
    // Several pumps in a row carry the cursor and the drained queues along.
    std::size_t a = cursor, b = cursor;
    for (int tick = 0; tick < 3; ++tick) {
      a = stepping_pump(stepping, a);
      b = walking_pump(walking, b);
      ASSERT_EQ(a, b) << "trial " << trial << " tick " << tick;
    }
    ASSERT_EQ(stepping.log, walking.log) << "trial " << trial;
    ASSERT_EQ(stepping.tries, walking.tries) << "trial " << trial;
    for (std::size_t i = 0; i < stepping.peers.size(); ++i) {
      ASSERT_EQ(stepping.peers[i].queue, walking.peers[i].queue) << "trial " << trial;
    }
  }
}

TEST(UploadWalk, EndsWhereTheSteppingLoopEnds) {
  const auto never = [](std::size_t) { return Visit::kIdle; };
  const auto none = [](std::size_t) { return std::size_t{5}; };
  // Nothing served: the cursor stays at the start index, wrapped.
  EXPECT_EQ(walk_round_robin(5, 7, none, never), 2u);
  // One serve at index 3, with index 3 the only peer with work: the walk
  // comes back to it once more, then ends one past it.
  int serves = 0;
  const auto only3 = [](std::size_t) { return std::size_t{3}; };
  const auto serve_once = [&](std::size_t) { return serves++ == 0 ? Visit::kServed : Visit::kIdle; };
  EXPECT_EQ(walk_round_robin(5, 1, only3, serve_once), 4u);
  EXPECT_EQ(serves, 2);
  // A refusal ends the walk one past the refused index.
  const auto refuse = [](std::size_t) { return Visit::kStop; };
  EXPECT_EQ(walk_round_robin(5, 0, only3, refuse), 4u);
  const auto only4 = [](std::size_t) { return std::size_t{4}; };
  EXPECT_EQ(walk_round_robin(5, 0, only4, refuse), 0u);
}

// --- PEX delta -----------------------------------------------------------------

// The round's advert set as a map filled in peer order.
std::map<net::Endpoint, PeerId> advert_map(const std::vector<PexPeer>& entries) {
  std::map<net::Endpoint, PeerId> current;
  for (const PexPeer& e : entries) current[e.endpoint] = e.peer_id;
  return current;
}

// The delta as two nested lookups computed it.
void nested_delta(const std::map<net::Endpoint, PeerId>& current,
                  const std::map<net::Endpoint, PeerId>& sent, net::Endpoint to,
                  PeerId remote_id, std::vector<PexPeer>& added,
                  std::vector<net::Endpoint>& dropped) {
  for (const auto& [endpoint, id] : current) {
    if (endpoint == to || id == remote_id) continue;  // not itself
    auto it = sent.find(endpoint);
    if (it != sent.end() && it->second == id) continue;  // known
    added.push_back({endpoint, id});
  }
  for (const auto& [endpoint, id] : sent) {
    if (current.count(endpoint) == 0) dropped.push_back(endpoint);
  }
}

// Endpoints and ids from small pools, so entries collide, recur on both
// sides and go stale.
net::Endpoint random_endpoint(sim::Rng& rng) {
  return {net::IpAddr{static_cast<std::uint32_t>(1 + rng.below(6))},
          static_cast<std::uint16_t>(6881 + rng.below(3))};
}
PeerId random_id(sim::Rng& rng) { return 1 + rng.below(8); }

TEST(PexDelta, SortedAdvertsMatchMapAssignment) {
  sim::Rng rng{77};
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<PexPeer> entries(rng.below(14));
    for (PexPeer& e : entries) e = {random_endpoint(rng), random_id(rng)};
    const std::map<net::Endpoint, PeerId> expected = advert_map(entries);
    const std::vector<PexPeer> sorted = sorted_adverts(entries);
    ASSERT_EQ(sorted.size(), expected.size()) << "trial " << trial;
    auto it = expected.begin();
    for (const PexPeer& e : sorted) {
      ASSERT_EQ(e.endpoint, it->first) << "trial " << trial;
      ASSERT_EQ(e.peer_id, it->second) << "trial " << trial;
      ++it;
    }
  }
}

TEST(PexDelta, MatchesNestedLookupOracle) {
  sim::Rng rng{4242};
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<PexPeer> entries(rng.below(14));
    for (PexPeer& e : entries) e = {random_endpoint(rng), random_id(rng)};
    std::map<net::Endpoint, PeerId> sent;
    const std::size_t known = rng.below(10);
    for (std::size_t i = 0; i < known; ++i) {
      // Half the baseline repeats an advert (maybe under a stale id), half
      // names endpoints the round no longer carries.
      if (!entries.empty() && rng.bernoulli(0.5)) {
        const PexPeer& e = entries[rng.below(entries.size())];
        sent[e.endpoint] = rng.bernoulli(0.7) ? e.peer_id : random_id(rng);
      } else {
        sent[random_endpoint(rng)] = random_id(rng);
      }
    }
    // The recipient often appears in the advert set, by endpoint or by id.
    net::Endpoint to = random_endpoint(rng);
    PeerId remote_id = random_id(rng);
    if (!entries.empty() && rng.bernoulli(0.5)) {
      const PexPeer& self = entries[rng.below(entries.size())];
      if (rng.bernoulli(0.5)) to = self.endpoint;
      if (rng.bernoulli(0.5)) remote_id = self.peer_id;
    }

    std::vector<PexPeer> want_added, got_added;
    std::vector<net::Endpoint> want_dropped, got_dropped;
    nested_delta(advert_map(entries), sent, to, remote_id, want_added, want_dropped);
    pex_delta(sorted_adverts(entries), sent, to, remote_id, got_added, got_dropped);
    ASSERT_EQ(got_added, want_added) << "trial " << trial;
    ASSERT_EQ(got_dropped, want_dropped) << "trial " << trial;
  }
}

}  // namespace
}  // namespace wp2p::bt
