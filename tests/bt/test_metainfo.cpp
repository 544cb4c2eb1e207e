#include "bt/metainfo.hpp"

#include <gtest/gtest.h>

#include "util/fnv1a.hpp"

namespace wp2p::bt {
namespace {

TEST(Metainfo, CreateComputesPieceCount) {
  auto m = Metainfo::create("file", 1000 * 1000, 256 * 1024);
  EXPECT_EQ(m.piece_count(), 4);  // ceil(1e6 / 262144)
  EXPECT_EQ(m.total_size, 1000 * 1000);
}

TEST(Metainfo, LastPieceIsShort) {
  auto m = Metainfo::create("file", 1000 * 1000, 256 * 1024);
  EXPECT_EQ(m.piece_size(0), 256 * 1024);
  EXPECT_EQ(m.piece_size(3), 1000 * 1000 - 3 * 256 * 1024);
}

TEST(Metainfo, ExactMultipleHasFullLastPiece) {
  auto m = Metainfo::create("file", 512 * 1024, 256 * 1024);
  EXPECT_EQ(m.piece_count(), 2);
  EXPECT_EQ(m.piece_size(1), 256 * 1024);
}

TEST(Metainfo, InfoHashIsDeterministic) {
  auto a = Metainfo::create("x", 1 << 20, 1 << 18, "t", 7);
  auto b = Metainfo::create("x", 1 << 20, 1 << 18, "t", 7);
  EXPECT_EQ(a.info_hash, b.info_hash);
}

TEST(Metainfo, InfoHashDependsOnContent) {
  auto a = Metainfo::create("x", 1 << 20, 1 << 18, "t", 1);
  auto b = Metainfo::create("x", 1 << 20, 1 << 18, "t", 2);
  auto c = Metainfo::create("y", 1 << 20, 1 << 18, "t", 1);
  EXPECT_NE(a.info_hash, b.info_hash);
  EXPECT_NE(a.info_hash, c.info_hash);
}

TEST(Metainfo, BencodeRoundTrip) {
  auto m = Metainfo::create("fedora.iso", 688 * 1000 * 1000, 256 * 1024, "tracker-1", 42);
  auto restored = Metainfo::decode(m.encode());
  EXPECT_EQ(restored.name, m.name);
  EXPECT_EQ(restored.announce, m.announce);
  EXPECT_EQ(restored.total_size, m.total_size);
  EXPECT_EQ(restored.piece_length, m.piece_length);
  EXPECT_EQ(restored.info_hash, m.info_hash);
  EXPECT_EQ(restored.piece_hashes, m.piece_hashes);
}

TEST(Metainfo, PieceHashesAreDistinct) {
  auto m = Metainfo::create("file", 10 * 256 * 1024, 256 * 1024);
  for (std::size_t i = 0; i < m.piece_hashes.size(); ++i) {
    for (std::size_t j = i + 1; j < m.piece_hashes.size(); ++j) {
      EXPECT_NE(m.piece_hashes[i], m.piece_hashes[j]);
    }
  }
}

TEST(Fnv1a, MatchesKnownVector) {
  // FNV-1a 64-bit of empty string is the offset basis.
  EXPECT_EQ(util::fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(util::fnv1a("a"), util::fnv1a("b"));
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(util::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(util::fnv1a("foobar"), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace wp2p::bt
