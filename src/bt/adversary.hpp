// Scripted adversarial peers for the enforcement layer's fault model.
//
// An AdversaryPeer speaks the real wire protocol through the ordinary
// simulated stack — it announces to the tracker, accepts and dials TCP
// connections, handshakes, and exchanges bitfields — but then misbehaves in
// one scripted way per AdversaryKind. Each kind targets one enforcement
// defense in bt::Client:
//
//   kSlowloris   unchokes every victim but serves one block per 45 s,
//                pinning request pipelines (stall auditor).
//   kLiar        advertises a full bitfield and never serves a byte
//                (zero-payload liar detection).
//   kFlooder     blasts block requests far past any honest pipeline, choked
//                or not (request quota / backlog cap).
//   kGarbage     sends struct-malformed frames — bad indexes, impossible
//                lengths, wrong-torrent bitfields (malformation budget).
//   kChurner     serves honestly but flips choke/unchoke every tick
//                (unchoke-churn window).
//   kWithholder  advertises everything, silently refuses a withheld slice
//                (repeat-piece liar detection).
//   kPexSpammer  gossips PEX messages stuffed with bogus endpoints
//                (endpoint sanity filter / spam budget).
//
// The scaffolding (session bookkeeping, handshake exchange, announce wheel)
// deliberately mirrors exp::FlyweightSwarm so an adversary is indistinguishable
// from a background peer until it starts cheating.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "bt/bitfield.hpp"
#include "bt/metainfo.hpp"
#include "bt/tracker.hpp"
#include "bt/wire.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "tcp/stack.hpp"

namespace wp2p::bt {

enum class AdversaryKind {
  kSlowloris,
  kLiar,
  kFlooder,
  kGarbage,
  kChurner,
  kWithholder,
  kPexSpammer,
};

// Stable text names ("slowloris", "liar", ...) used by the scenario format's
// adv= key and bench flags; adversary_kind_from parses them back (nullopt for
// unknown names).
const char* to_string(AdversaryKind kind);
std::optional<AdversaryKind> adversary_kind_from(std::string_view name);

// Every registered kind in enum order (scenario fuzzer draws from this).
inline constexpr AdversaryKind kAllAdversaryKinds[] = {
    AdversaryKind::kSlowloris, AdversaryKind::kLiar,       AdversaryKind::kFlooder,
    AdversaryKind::kGarbage,   AdversaryKind::kChurner,    AdversaryKind::kWithholder,
    AdversaryKind::kPexSpammer,
};

// The attack shapes (tick rate, burst sizes, slowloris delay, withheld
// slice) are constants in adversary.cpp.
struct AdversaryConfig {
  AdversaryKind kind = AdversaryKind::kSlowloris;
  std::uint16_t listen_port = 6881;
};

struct AdversaryStats {
  std::uint64_t requests_withheld = 0;  // dropped by liar/withholder/slowloris
  std::uint64_t requests_sent = 0;      // flooder outbound
  std::uint64_t garbage_sent = 0;       // malformed frames emitted
  std::uint64_t churn_flips = 0;        // choke-state flips emitted
  std::uint64_t pex_bogus_sent = 0;     // bogus gossip entries emitted
  std::int64_t uploaded_payload = 0;    // real piece bytes served
  std::int64_t downloaded_payload = 0;  // piece bytes extracted from victims
};

class AdversaryPeer {
 public:
  AdversaryPeer(net::Node& node, tcp::Stack& stack, Tracker& tracker, const Metainfo& meta,
                AdversaryConfig config = {});
  ~AdversaryPeer();

  AdversaryPeer(const AdversaryPeer&) = delete;
  AdversaryPeer& operator=(const AdversaryPeer&) = delete;

  void start();
  void stop();

  PeerId peer_id() const { return peer_id_; }
  const AdversaryStats& stats() const { return stats_; }

 private:
  struct Session {
    std::shared_ptr<tcp::Connection> conn;
    bool initiator = false;
    bool handshake_sent = false;
    bool handshake_received = false;
    bool am_choking = true;
    bool am_interested = false;
    bool peer_choking = true;
    bool peer_interested = false;
    int garbage_cursor = 0;        // rotates through malformation variants
    sim::SimTime serve_backlog_until = 0;  // slowloris: next free service slot

    bool established() const { return handshake_sent && handshake_received; }
  };

  bool advertises_full() const;
  bool announces_as_seed() const;
  const Bitfield& advertised_bitfield() const;
  bool withheld(int piece) const;

  void do_announce(AnnounceEvent event);
  void dial(net::Endpoint remote);
  void adopt(std::shared_ptr<tcp::Connection> conn, bool initiator);
  void close_session(Session& s);
  void send(Session& s, std::shared_ptr<const WireMessage> msg);
  void send_handshake(Session& s);
  void on_message(Session& s, const WireMessage& msg);
  void handle_request(Session& s, const WireMessage& msg);
  void tick();
  void flood_session(Session& s);
  void send_garbage(Session& s);
  void send_pex_spam(Session& s);

  net::Node& node_;
  tcp::Stack& stack_;
  Tracker& tracker_;
  const Metainfo& meta_;
  AdversaryConfig config_;
  sim::Simulator& sim_;
  sim::Rng rng_;
  PeerId peer_id_ = 0;
  bool running_ = false;
  Bitfield full_;   // advertised by the full-bitfield kinds
  Bitfield empty_;  // advertised by the leech kinds
  std::deque<std::unique_ptr<Session>> sessions_;
  sim::PeriodicTask announce_task_;
  sim::PeriodicTask tick_task_;
  int ticks_ = 0;
  AdversaryStats stats_;
  // Liveness flag shared into deferred callbacks (announces, slowloris
  // serves) so they become no-ops once the adversary is destroyed.
  std::shared_ptr<bool> alive_;
};

}  // namespace wp2p::bt
