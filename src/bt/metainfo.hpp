// Torrent metainfo (.torrent contents).
//
// Single-file torrents only (what the paper's experiments use). Piece hashes
// are simulated: 64-bit FNV-1a values derived from (content id, piece index)
// stand in for SHA-1 digests. There are no payload bytes to hash — instead a
// receiver accumulates the expected piece hash XOR a per-block tag for every
// block delivered corrupt, so a damaged block makes verification fail exactly
// as a real digest mismatch would (see PieceStore::mark_block).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bt/bencode.hpp"

namespace wp2p::bt {

using InfoHash = std::uint64_t;
using PeerId = std::uint64_t;

struct Metainfo {
  std::string name;
  std::string announce;  // symbolic tracker name
  std::int64_t piece_length = 256 * 1024;  // the paper's default piece size
  std::int64_t total_size = 0;
  std::vector<std::uint64_t> piece_hashes;
  InfoHash info_hash = 0;

  int piece_count() const { return static_cast<int>(piece_hashes.size()); }

  std::uint64_t piece_hash(int index) const {
    return piece_hashes[static_cast<std::size_t>(index)];
  }

  // Simulated per-block digest contribution: XORed into a piece's accumulator
  // when block `block` arrives damaged, guaranteeing a hash mismatch.
  std::uint64_t block_tag(int piece, int block) const;

  std::int64_t piece_size(int index) const {
    const std::int64_t start = static_cast<std::int64_t>(index) * piece_length;
    const std::int64_t remain = total_size - start;
    return remain < piece_length ? remain : piece_length;
  }

  // Build a metainfo for synthetic content identified by `content_id`.
  static Metainfo create(std::string name, std::int64_t total_size,
                         std::int64_t piece_length = 256 * 1024,
                         std::string announce = "tracker",
                         std::uint64_t content_id = 0);

  // Bencode round trip (the .torrent file format).
  Bencode to_bencode() const;
  static Metainfo from_bencode(const Bencode& b);
  std::string encode() const { return to_bencode().encode(); }
  static Metainfo decode(const std::string& data) {
    return from_bencode(Bencode::decode(data));
  }
};

}  // namespace wp2p::bt
