#include "bt/resume_store.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "util/parse.hpp"

namespace wp2p::bt {

namespace {

void append_line(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
  out += '\n';
}

std::string bits_to_string(const std::vector<bool>& bits) {
  std::string s;
  s.reserve(bits.size());
  for (bool b : bits) s += b ? '1' : '0';
  return s;
}

std::optional<std::vector<bool>> bits_from_string(std::string_view s) {
  std::vector<bool> bits;
  bits.reserve(s.size());
  for (char c : s) {
    if (c != '0' && c != '1') return std::nullopt;
    bits.push_back(c == '1');
  }
  return bits;
}

using util::parse_double;
using util::parse_u64;
using util::value_of;

}  // namespace

std::string ResumeSnapshot::serialize() const {
  std::string out;
  append_line(out, "resume v1 info=%" PRIx64 " peer=%" PRIx64 " at_us=%" PRId64
                   " pieces=%d",
              info_hash, peer_id, taken_at, piece_count);
  if (!have.empty()) {
    out += "have";
    for (int piece : have) {
      out += ' ';
      out += std::to_string(piece);
    }
    out += '\n';
  }
  for (const PieceStore::PartialState& p : partials) {
    append_line(out, "partial piece=%d blocks=%s corrupt=%s", p.piece,
                bits_to_string(p.blocks).c_str(), bits_to_string(p.corrupt).c_str());
  }
  for (const CreditLedger::Exported& c : credit) {
    append_line(out, "credit peer=%" PRIx64 " value=%.17g updated_us=%" PRId64, c.peer,
                c.value, c.updated);
  }
  for (const auto& [peer, count] : strikes) {
    append_line(out, "strike peer=%" PRIx64 " count=%d", peer, count);
  }
  for (PeerId peer : banned) {
    append_line(out, "ban peer=%" PRIx64, peer);
  }
  for (const BootstrapCache::Entry& e : bootstrap) {
    append_line(out, "boot addr=%u port=%u peer=%" PRIx64 " last_us=%" PRId64,
                e.endpoint.addr.value, e.endpoint.port, e.peer_id, e.last_good);
  }
  out += "end\n";
  return out;
}

std::optional<ResumeSnapshot> ResumeSnapshot::parse(std::string_view text) {
  ResumeSnapshot snap;
  bool saw_header = false;
  bool saw_end = false;
  for (std::string_view line; !saw_end && util::next_line(text, line);) {
    if (line.empty()) continue;
    const auto tokens = util::split(line);
    if (tokens.empty()) continue;
    const std::string_view tag = tokens[0];
    if (tag == "resume") {
      if (tokens.size() != 6 || tokens[1] != "v1") return std::nullopt;
      const auto info = value_of(tokens[2], "info");
      const auto peer = value_of(tokens[3], "peer");
      const auto at = value_of(tokens[4], "at_us");
      const auto pieces = value_of(tokens[5], "pieces");
      if (!info || !peer || !at || !pieces) return std::nullopt;
      const auto info_v = parse_u64(*info, 16);
      const auto peer_v = parse_u64(*peer, 16);
      const auto at_v = parse_u64(*at);
      const auto pieces_v = parse_u64(*pieces);
      if (!info_v || !peer_v || !at_v || !pieces_v) return std::nullopt;
      snap.info_hash = *info_v;
      snap.peer_id = *peer_v;
      snap.taken_at = static_cast<sim::SimTime>(*at_v);
      snap.piece_count = static_cast<int>(*pieces_v);
      saw_header = true;
    } else if (tag == "have") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto v = parse_u64(tokens[i]);
        if (!v) return std::nullopt;
        snap.have.push_back(static_cast<int>(*v));
      }
    } else if (tag == "partial") {
      if (tokens.size() != 4) return std::nullopt;
      const auto piece = value_of(tokens[1], "piece");
      const auto blocks = value_of(tokens[2], "blocks");
      const auto corrupt = value_of(tokens[3], "corrupt");
      if (!piece || !blocks || !corrupt) return std::nullopt;
      const auto piece_v = parse_u64(*piece);
      auto blocks_v = bits_from_string(*blocks);
      auto corrupt_v = bits_from_string(*corrupt);
      if (!piece_v || !blocks_v || !corrupt_v) return std::nullopt;
      if (blocks_v->size() != corrupt_v->size()) return std::nullopt;
      snap.partials.push_back(PieceStore::PartialState{
          static_cast<int>(*piece_v), std::move(*blocks_v), std::move(*corrupt_v)});
    } else if (tag == "credit") {
      if (tokens.size() != 4) return std::nullopt;
      const auto peer = value_of(tokens[1], "peer");
      const auto value = value_of(tokens[2], "value");
      const auto updated = value_of(tokens[3], "updated_us");
      if (!peer || !value || !updated) return std::nullopt;
      const auto peer_v = parse_u64(*peer, 16);
      const auto value_v = parse_double(*value);
      const auto updated_v = parse_u64(*updated);
      if (!peer_v || !value_v || !updated_v) return std::nullopt;
      snap.credit.push_back(CreditLedger::Exported{
          *peer_v, *value_v, static_cast<sim::SimTime>(*updated_v)});
    } else if (tag == "strike") {
      if (tokens.size() != 3) return std::nullopt;
      const auto peer = value_of(tokens[1], "peer");
      const auto count = value_of(tokens[2], "count");
      if (!peer || !count) return std::nullopt;
      const auto peer_v = parse_u64(*peer, 16);
      const auto count_v = parse_u64(*count);
      if (!peer_v || !count_v) return std::nullopt;
      snap.strikes.emplace_back(*peer_v, static_cast<int>(*count_v));
    } else if (tag == "ban") {
      if (tokens.size() != 2) return std::nullopt;
      const auto peer = value_of(tokens[1], "peer");
      if (!peer) return std::nullopt;
      const auto peer_v = parse_u64(*peer, 16);
      if (!peer_v) return std::nullopt;
      snap.banned.push_back(*peer_v);
    } else if (tag == "boot") {
      if (tokens.size() != 5) return std::nullopt;
      const auto addr = value_of(tokens[1], "addr");
      const auto port = value_of(tokens[2], "port");
      const auto peer = value_of(tokens[3], "peer");
      const auto last = value_of(tokens[4], "last_us");
      if (!addr || !port || !peer || !last) return std::nullopt;
      const auto addr_v = parse_u64(*addr);
      const auto port_v = parse_u64(*port);
      const auto peer_v = parse_u64(*peer, 16);
      const auto last_v = parse_u64(*last);
      if (!addr_v || !port_v || !peer_v || !last_v) return std::nullopt;
      BootstrapCache::Entry entry;
      entry.endpoint.addr.value = static_cast<std::uint32_t>(*addr_v);
      entry.endpoint.port = static_cast<std::uint16_t>(*port_v);
      entry.peer_id = *peer_v;
      entry.last_good = static_cast<sim::SimTime>(*last_v);
      snap.bootstrap.push_back(entry);
    } else if (tag == "end") {
      saw_end = true;
    } else {
      return std::nullopt;  // unknown tag: corrupt or future-format snapshot
    }
  }
  // The trailer guards against truncation that happens to keep lines whole.
  if (!saw_header || !saw_end) return std::nullopt;
  return snap;
}

std::uint64_t ResumeStore::save(const ResumeSnapshot& snapshot,
                                std::function<void(std::uint64_t)> done) {
  ++stats_.saves;
  return storage_.append(snapshot.serialize(), std::move(done));
}

std::optional<ResumeStore::Loaded> ResumeStore::load() {
  sim::StableStorage::LoadResult result = storage_.load();
  if (!result.record) {
    ++stats_.load_failures;
    return std::nullopt;
  }
  auto snapshot = ResumeSnapshot::parse(result.record->payload);
  if (!snapshot || snapshot->info_hash != info_hash_) {
    // A checksum-valid record that doesn't parse (or belongs to another
    // torrent) is as useless as a torn one: cold start.
    ++stats_.load_failures;
    return std::nullopt;
  }
  Loaded loaded;
  loaded.snapshot = std::move(*snapshot);
  loaded.seq = result.record->seq;
  loaded.discarded = result.discarded;
  return loaded;
}

}  // namespace wp2p::bt
