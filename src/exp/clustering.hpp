// Heterogeneous-bandwidth swarm scaffolding and the clustering probe.
//
// BandwidthClass describes one tier of a heterogeneous swarm (Legout et al.,
// arXiv:cs/0703107): an access-link shape plus a client upload limit. The
// canonical three_tier_classes() swarm is the repo's reproduction testbed for
// the clustering result.
//
// ClusteringProbe wires a metrics::TransferMatrix to live bt::Clients through
// the client's per-pair accounting hooks (on_payload_sent/received,
// on_unchoke_change). Rows are IDENTITIES: the probe binds every peer-id a
// tracked client has ever used to the same row, so bytes keep accruing to one
// row across reconnects, duplicate-handshake replacement, and hand-offs —
// including naive clients that regenerate their peer-id on re-initiation
// (resolve() refreshes the bindings whenever an unknown id appears).
//
// The probe must outlive the swarm it tracks, or finish() must be called
// before the swarm is torn down: hooks hold a pointer to the probe.
#pragma once

#include <string>
#include <vector>

#include "bt/client.hpp"
#include "metrics/transfer_matrix.hpp"
#include "net/wired_link.hpp"
#include "util/units.hpp"

namespace wp2p::exp {

// One bandwidth tier: the access link its members sit behind and the upload
// limit their clients enforce. The limit, not the link, is the tier's
// tit-for-tat signature (what other peers can measure and reciprocate); the
// link just has to not mask it.
struct BandwidthClass {
  std::string label;
  net::WiredParams link;
  util::Rate upload_limit = util::Rate::unlimited();
};

// The canonical 3-tier swarm of the clustering experiments: cable-modem-ish
// slow peers, ADSL2-ish mid peers, and fiber-ish fast peers. Up capacities
// sit at twice the upload limit so the limit (the incentive signal) binds,
// not the queue.
inline std::vector<BandwidthClass> three_tier_classes() {
  std::vector<BandwidthClass> classes(3);
  classes[0].label = "slow";
  classes[0].upload_limit = util::Rate::kBps(30.0);
  classes[0].link.up_capacity = util::Rate::kBps(60.0);
  classes[0].link.down_capacity = util::Rate::mbps(10.0);
  classes[1].label = "mid";
  classes[1].upload_limit = util::Rate::kBps(100.0);
  classes[1].link.up_capacity = util::Rate::kBps(200.0);
  classes[1].link.down_capacity = util::Rate::mbps(10.0);
  classes[2].label = "fast";
  classes[2].upload_limit = util::Rate::kBps(400.0);
  classes[2].link.up_capacity = util::Rate::kBps(800.0);
  classes[2].link.down_capacity = util::Rate::mbps(10.0);
  return classes;
}

class ClusteringProbe {
 public:
  explicit ClusteringProbe(sim::Simulator& sim) : sim_{&sim} {}

  // Register `client` as one identity row and install its accounting hooks.
  // Returns the row index. Call after the swarm member is added, before
  // start_all().
  int track(bt::Client& client, const std::string& label, int bw_class, bool is_seed) {
    const int row = matrix_.add_identity(label, bw_class, is_seed);
    matrix_.bind(client.peer_id(), row);
    tracked_.push_back(Tracked{&client, row});
    client.on_payload_sent = [this, row](bt::PeerId to, std::int64_t bytes) {
      const int dst = resolve(to);
      if (dst >= 0) matrix_.record_upload(row, dst, bytes);
    };
    client.on_payload_received = [this, row](bt::PeerId from, std::int64_t bytes) {
      const int src = resolve(from);
      if (src >= 0) matrix_.record_download(row, src, bytes);
    };
    client.on_unchoke_change = [this, row](bt::PeerId to, bool unchoked) {
      const int dst = resolve(to);
      if (dst >= 0) matrix_.set_unchoked(row, dst, unchoked, sim_->now());
    };
    return row;
  }

  // Freeze one tracked client's outgoing accounting and close its open
  // unchoke intervals — call at its completion: affinity is a leech-phase
  // quantity, and a completed peer's seeding behaviour would dilute it.
  // Incoming edges (other rows' behaviour toward this identity) keep accruing.
  void freeze(const bt::Client& client) {
    for (const Tracked& t : tracked_) {
      if (t.client != &client) continue;
      t.client->on_payload_sent = nullptr;
      t.client->on_unchoke_change = nullptr;
      matrix_.finish_row(t.row, sim_->now());
    }
  }

  // Uninstall every hook and close all open intervals: the matrix freezes at
  // the measured-phase boundary even if the simulation keeps running. Also
  // makes the probe safe to destroy before the swarm.
  void detach() {
    for (const Tracked& t : tracked_) {
      t.client->on_payload_sent = nullptr;
      t.client->on_payload_received = nullptr;
      t.client->on_unchoke_change = nullptr;
    }
    finish();
  }

  // Close open unchoke intervals at the current sim time. Call once, when the
  // measured phase ends.
  void finish() { matrix_.finish(sim_->now()); }

  metrics::TransferMatrix& matrix() { return matrix_; }
  const metrics::TransferMatrix& matrix() const { return matrix_; }

 private:
  struct Tracked {
    bt::Client* client = nullptr;
    int row = -1;
  };

  // Map a wire peer-id to its identity row. On a miss, refresh the bindings
  // from every tracked client's current peer_id() — a naive client that just
  // re-initiated shows up here with a fresh id — and retry. Old bindings are
  // kept so bytes already in flight under the previous id still resolve.
  int resolve(bt::PeerId id) {
    int row = matrix_.row_of(id);
    if (row >= 0) return row;
    for (const Tracked& t : tracked_) matrix_.bind(t.client->peer_id(), t.row);
    return matrix_.row_of(id);
  }

  sim::Simulator* sim_;
  metrics::TransferMatrix matrix_;
  std::vector<Tracked> tracked_;
};

}  // namespace wp2p::exp
