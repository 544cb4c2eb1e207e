#include "bt/metainfo.hpp"

#include "util/assert.hpp"
#include "util/fnv1a.hpp"

namespace wp2p::bt {

Metainfo Metainfo::create(std::string name, std::int64_t total_size,
                          std::int64_t piece_length, std::string announce,
                          std::uint64_t content_id) {
  WP2P_ASSERT(total_size > 0);
  WP2P_ASSERT(piece_length > 0);
  Metainfo m;
  m.name = std::move(name);
  m.announce = std::move(announce);
  m.piece_length = piece_length;
  m.total_size = total_size;
  const int pieces = static_cast<int>((total_size + piece_length - 1) / piece_length);
  m.piece_hashes.reserve(static_cast<std::size_t>(pieces));
  for (int i = 0; i < pieces; ++i) {
    m.piece_hashes.push_back(
        util::fnv1a(m.name + "#" + std::to_string(content_id) + "/" + std::to_string(i)));
  }
  // The real protocol hashes the bencoded info dict; we do the same with FNV.
  Bencode::Dict info;
  info["length"] = m.total_size;
  info["name"] = m.name;
  info["piece length"] = m.piece_length;
  std::string hashes;
  for (std::uint64_t h : m.piece_hashes) hashes += std::to_string(h) + ",";
  info["pieces"] = hashes;
  m.info_hash = util::fnv1a(Bencode{info}.encode());
  return m;
}

std::uint64_t Metainfo::block_tag(int piece, int block) const {
  std::uint64_t tag =
      util::fnv1a(name + "!" + std::to_string(piece) + ":" + std::to_string(block));
  // A single corrupt block must always perturb the accumulator; force a bit.
  return tag | 1;
}

Bencode Metainfo::to_bencode() const {
  Bencode::Dict info;
  info["length"] = total_size;
  info["name"] = name;
  info["piece length"] = piece_length;
  std::string hashes;
  for (std::uint64_t h : piece_hashes) hashes += std::to_string(h) + ",";
  info["pieces"] = hashes;

  Bencode::Dict root;
  root["announce"] = announce;
  root["info"] = Bencode{std::move(info)};
  root["info hash"] = static_cast<std::int64_t>(info_hash);
  return Bencode{std::move(root)};
}

Metainfo Metainfo::from_bencode(const Bencode& b) {
  Metainfo m;
  m.announce = b.at("announce").as_string();
  const Bencode& info = b.at("info");
  m.total_size = info.at("length").as_int();
  m.name = info.at("name").as_string();
  m.piece_length = info.at("piece length").as_int();
  m.info_hash = static_cast<InfoHash>(b.at("info hash").as_int());
  const std::string& hashes = info.at("pieces").as_string();
  std::size_t pos = 0;
  while (pos < hashes.size()) {
    std::size_t comma = hashes.find(',', pos);
    if (comma == std::string::npos) break;
    m.piece_hashes.push_back(std::stoull(hashes.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  WP2P_ASSERT(static_cast<std::int64_t>(m.piece_hashes.size()) ==
              (m.total_size + m.piece_length - 1) / m.piece_length);
  return m;
}

}  // namespace wp2p::bt
