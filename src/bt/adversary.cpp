#include "bt/adversary.hpp"

#include <algorithm>
#include <string>

#include "bt/piece_store.hpp"

namespace wp2p::bt {

namespace {
constexpr sim::SimTime kAnnounceInterval = sim::seconds(60.0);
// Shared misbehavior clock: flood bursts, garbage frames, churn flips and
// PEX spam all run off one periodic tick.
constexpr sim::SimTime kTickInterval = sim::seconds(0.5);
constexpr int kMaxDials = 16;            // victims dialed per announce response
constexpr int kFloodBurst = 64;          // requests blasted per tick per session
constexpr int kGarbagePerTick = 4;       // malformed frames per tick per session
constexpr int kPexSpamEntries = 64;      // bogus entries per spam message
constexpr int kPexSpamEveryTicks = 8;    // spam message cadence in ticks
constexpr sim::SimTime kSlowDelay = sim::seconds(45.0);  // slowloris per-block service time
constexpr double kWithholdFraction = 0.25;  // slice of advertised pieces never served
}  // namespace

const char* to_string(AdversaryKind kind) {
  switch (kind) {
    case AdversaryKind::kSlowloris: return "slowloris";
    case AdversaryKind::kLiar: return "liar";
    case AdversaryKind::kFlooder: return "flooder";
    case AdversaryKind::kGarbage: return "garbage";
    case AdversaryKind::kChurner: return "churner";
    case AdversaryKind::kWithholder: return "withholder";
    case AdversaryKind::kPexSpammer: return "pexspam";
  }
  return "unknown";
}

std::optional<AdversaryKind> adversary_kind_from(std::string_view name) {
  for (AdversaryKind kind : kAllAdversaryKinds) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

AdversaryPeer::AdversaryPeer(net::Node& node, tcp::Stack& stack, Tracker& tracker,
                             const Metainfo& meta, AdversaryConfig config)
    : node_{node},
      stack_{stack},
      tracker_{tracker},
      meta_{meta},
      config_{config},
      sim_{node.sim()},
      rng_{node.sim().rng().fork()},
      full_{meta.piece_count()},
      empty_{meta.piece_count()},
      announce_task_{sim_, kAnnounceInterval, [this] { do_announce(AnnounceEvent::kInterval); }},
      tick_task_{sim_, kTickInterval, [this] { tick(); }} {
  peer_id_ = rng_.next_u64() | 1;
  full_.set_all();
  alive_ = std::make_shared<bool>(true);
}

AdversaryPeer::~AdversaryPeer() {
  *alive_ = false;
  for (auto& s : sessions_) {
    s->conn->on_connected = nullptr;
    s->conn->on_message = nullptr;
    s->conn->on_closed = nullptr;
  }
}

bool AdversaryPeer::advertises_full() const {
  switch (config_.kind) {
    case AdversaryKind::kSlowloris:
    case AdversaryKind::kLiar:
    case AdversaryKind::kChurner:
    case AdversaryKind::kWithholder:
    case AdversaryKind::kGarbage:
      return true;
    case AdversaryKind::kFlooder:
    case AdversaryKind::kPexSpammer:
      return false;
  }
  return false;
}

// A full-bitfield adversary announces as a seed so leeches seek it out; the
// leech kinds announce incomplete so seeds dial them.
bool AdversaryPeer::announces_as_seed() const { return advertises_full(); }

const Bitfield& AdversaryPeer::advertised_bitfield() const {
  return advertises_full() ? full_ : empty_;
}

bool AdversaryPeer::withheld(int piece) const {
  if (config_.kind != AdversaryKind::kWithholder) return false;
  const int cut = static_cast<int>(kWithholdFraction * static_cast<double>(meta_.piece_count()));
  return piece < cut;
}

void AdversaryPeer::start() {
  if (running_) return;
  running_ = true;
  stack_.listen(config_.listen_port, [this, alive = alive_](auto conn) {
    if (*alive && running_) adopt(std::move(conn), /*initiator=*/false);
  });
  announce_task_.start();
  tick_task_.start();
  do_announce(AnnounceEvent::kStarted);
}

void AdversaryPeer::stop() {
  if (!running_) return;
  running_ = false;
  announce_task_.stop();
  tick_task_.stop();
  stack_.stop_listening(config_.listen_port);
  auto doomed = std::move(sessions_);
  sessions_.clear();
  for (auto& s : doomed) {
    s->conn->on_connected = nullptr;
    s->conn->on_message = nullptr;
    s->conn->on_closed = nullptr;
    s->conn->abort();
  }
}

void AdversaryPeer::do_announce(AnnounceEvent event) {
  if (!running_ || !node_.connected()) return;
  AnnounceRequest req{meta_.info_hash,
                      {node_.address(), config_.listen_port},
                      peer_id_,
                      announces_as_seed(),
                      event};
  tracker_.announce(req, [this, alive = alive_](AnnounceResult result) {
    if (!*alive || !running_ || !result.ok) return;
    const net::Endpoint self{node_.address(), config_.listen_port};
    int dialed = 0;
    for (const TrackerPeerInfo& info : result.peers) {
      if (dialed >= kMaxDials) break;
      if (info.endpoint == self || info.peer_id == peer_id_) continue;
      if (announces_as_seed() && info.seed) continue;  // seeds won't trade with us
      bool connected = false;
      for (const auto& s : sessions_) {
        if (s->conn->remote() == info.endpoint) {
          connected = true;
          break;
        }
      }
      if (connected) continue;
      dial(info.endpoint);
      ++dialed;
    }
  });
}

void AdversaryPeer::dial(net::Endpoint remote) {
  if (!node_.connected()) return;
  adopt(stack_.connect(remote), /*initiator=*/true);
}

void AdversaryPeer::adopt(std::shared_ptr<tcp::Connection> conn, bool initiator) {
  sessions_.push_back(std::make_unique<Session>());
  Session* s = sessions_.back().get();
  s->conn = std::move(conn);
  s->initiator = initiator;
  if (initiator) {
    s->conn->on_connected = [this, s] { send_handshake(*s); };
  }
  s->conn->on_message = [this, s](const tcp::Connection::MessageHandle& handle,
                                  std::int64_t) {
    auto msg = std::static_pointer_cast<const WireMessage>(handle);
    if (msg) on_message(*s, *msg);
  };
  s->conn->on_closed = [this, s](tcp::CloseReason) { close_session(*s); };
}

void AdversaryPeer::close_session(Session& s) {
  s.conn->on_connected = nullptr;
  s.conn->on_message = nullptr;
  s.conn->on_closed = nullptr;
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->get() == &s) {
      sessions_.erase(it);
      break;
    }
  }
}

void AdversaryPeer::send(Session& s, std::shared_ptr<const WireMessage> msg) {
  const std::int64_t size = msg->wire_size();
  s.conn->send_message(std::move(msg), size);
}

void AdversaryPeer::send_handshake(Session& s) {
  send(s, WireMessage::handshake(meta_.info_hash, peer_id_, config_.listen_port));
  send(s, WireMessage::bitfield_msg(advertised_bitfield()));
  s.handshake_sent = true;
  // The leech kinds declare interest up front: a flooder needs unchokes to
  // probe the backlog cap, and interest keeps the victim from reaping us.
  if (!advertises_full()) {
    send(s, WireMessage::simple(MsgType::kInterested));
    s.am_interested = true;
  }
}

void AdversaryPeer::on_message(Session& s, const WireMessage& msg) {
  if (msg.type == MsgType::kHandshake) {
    if (msg.info_hash != meta_.info_hash) {
      s.conn->abort();
      return;
    }
    s.handshake_received = true;
    if (!s.handshake_sent) send_handshake(s);
    return;
  }
  if (!s.established()) return;
  switch (msg.type) {
    case MsgType::kInterested:
      s.peer_interested = true;
      // Every misbehaving server unchokes instantly: maximum victims in the
      // trap. The churner's flips start from this unchoked state too.
      if (advertises_full() && s.am_choking) {
        s.am_choking = false;
        send(s, WireMessage::simple(MsgType::kUnchoke));
      }
      break;
    case MsgType::kNotInterested: s.peer_interested = false; break;
    case MsgType::kChoke: s.peer_choking = true; break;
    case MsgType::kUnchoke:
      s.peer_choking = false;
      if (config_.kind == AdversaryKind::kFlooder) flood_session(s);
      break;
    case MsgType::kRequest: handle_request(s, msg); break;
    case MsgType::kPiece:
      stats_.downloaded_payload += msg.length;
      break;
    case MsgType::kBitfield:
    case MsgType::kHave:
    case MsgType::kCancel:  // nothing is queued; slowloris jobs stay scheduled
    case MsgType::kKeepAlive:
    case MsgType::kPex:
    case MsgType::kHandshake: break;
  }
}

void AdversaryPeer::handle_request(Session& s, const WireMessage& msg) {
  if (msg.piece < 0 || msg.piece >= meta_.piece_count()) return;
  switch (config_.kind) {
    case AdversaryKind::kLiar:
      ++stats_.requests_withheld;  // advertised, never served
      return;
    case AdversaryKind::kWithholder:
      if (withheld(msg.piece)) {
        ++stats_.requests_withheld;
        return;
      }
      break;
    case AdversaryKind::kSlowloris: {
      // Serve, but one block per kSlowDelay: the backlog timestamp pushes
      // every further request past the victim's patience.
      Session* sp = &s;
      sp->serve_backlog_until =
          std::max(sp->serve_backlog_until, sim_.now()) + kSlowDelay;
      const sim::SimTime at = sp->serve_backlog_until - sim_.now();
      const int piece = msg.piece;
      const std::int64_t offset = msg.offset, length = msg.length;
      sim_.after(at, [this, alive = alive_, sp, piece, offset, length] {
        if (!*alive || !running_) return;
        for (const auto& live : sessions_) {
          if (live.get() != sp) continue;
          if (!sp->established() || sp->am_choking) return;
          send(*sp, WireMessage::piece_msg(piece, offset, length));
          stats_.uploaded_payload += length;
          return;
        }
      });
      ++stats_.requests_withheld;  // not served now (maybe much later)
      return;
    }
    case AdversaryKind::kFlooder:
    case AdversaryKind::kPexSpammer:
      return;  // leech kinds advertised nothing; a request here is a bug
    case AdversaryKind::kGarbage:
    case AdversaryKind::kChurner:
      break;  // serve honestly; the attack runs on the tick
  }
  if (s.am_choking) return;
  send(s, WireMessage::piece_msg(msg.piece, msg.offset, msg.length));
  stats_.uploaded_payload += msg.length;
}

void AdversaryPeer::tick() {
  if (!running_) return;
  ++ticks_;
  // Snapshot: flood/garbage sends can abort sessions mid-iteration.
  std::vector<Session*> live;
  live.reserve(sessions_.size());
  for (const auto& s : sessions_) {
    if (s->established()) live.push_back(s.get());
  }
  for (Session* s : live) {
    // Re-validate: an earlier send this tick may have closed it.
    if (std::none_of(sessions_.begin(), sessions_.end(),
                     [s](const auto& p) { return p.get() == s; })) {
      continue;
    }
    switch (config_.kind) {
      case AdversaryKind::kFlooder:
        flood_session(*s);
        break;
      case AdversaryKind::kGarbage:
        send_garbage(*s);
        break;
      case AdversaryKind::kChurner:
        if (s->peer_interested) {
          s->am_choking = !s->am_choking;
          send(*s, WireMessage::simple(s->am_choking ? MsgType::kChoke
                                                     : MsgType::kUnchoke));
          ++stats_.churn_flips;
        }
        break;
      case AdversaryKind::kPexSpammer:
        if (ticks_ % kPexSpamEveryTicks == 0) send_pex_spam(*s);
        break;
      case AdversaryKind::kSlowloris:
      case AdversaryKind::kLiar:
      case AdversaryKind::kWithholder:
        break;  // passive kinds: the damage is what they DON'T send
    }
  }
}

void AdversaryPeer::flood_session(Session& s) {
  // Valid-looking requests (they must pass the malformation gate) far beyond
  // any honest pipeline, sent choked or not.
  const int pieces = meta_.piece_count();
  if (pieces == 0) return;
  for (int i = 0; i < kFloodBurst; ++i) {
    const int piece = static_cast<int>(rng_.below(static_cast<std::uint64_t>(pieces)));
    const std::int64_t length = std::min<std::int64_t>(kBlockSize, meta_.piece_size(piece));
    send(s, WireMessage::request(piece, 0, length));
    ++stats_.requests_sent;
  }
}

void AdversaryPeer::send_garbage(Session& s) {
  // Rotate through the malformation variants bt::malformed_reason rejects.
  // Payload-free frames only: the point is hostile *structure*, not bulk.
  for (int i = 0; i < kGarbagePerTick; ++i) {
    const int pieces = meta_.piece_count();
    std::shared_ptr<const WireMessage> msg;
    switch (s.garbage_cursor++ % 5) {
      case 0: msg = WireMessage::request(-1, 0, kBlockSize); break;
      case 1: msg = WireMessage::request(0, 0, kMaxRequestLength + 1); break;
      case 2: msg = WireMessage::have(pieces + 7); break;
      case 3:
        msg = WireMessage::cancel(pieces > 0 ? pieces - 1 : 0,
                                  meta_.piece_size(std::max(0, pieces - 1)), kBlockSize);
        break;
      default: msg = WireMessage::bitfield_msg(Bitfield{pieces + 8}); break;
    }
    send(s, std::move(msg));
    ++stats_.garbage_sent;
  }
}

void AdversaryPeer::send_pex_spam(Session& s) {
  // Structurally bogus gossip: zero endpoints and anonymous identities, the
  // shapes no honest client ever emits.
  std::vector<PexPeer> added;
  added.reserve(static_cast<std::size_t>(kPexSpamEntries));
  for (int i = 0; i < kPexSpamEntries; ++i) {
    PexPeer entry;
    if (i % 2 == 0) {
      entry.endpoint = net::Endpoint{};  // invalid address/port
      entry.peer_id = rng_.next_u64() | 1;
    } else {
      entry.endpoint = net::Endpoint{node_.address(), 0};  // port 0: invalid
      entry.peer_id = 0;                                   // anonymous
    }
    added.push_back(entry);
  }
  stats_.pex_bogus_sent += static_cast<std::uint64_t>(added.size());
  send(s, WireMessage::pex(std::move(added), {}));
}

}  // namespace wp2p::bt
