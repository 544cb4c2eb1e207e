#include "bt/bitfield.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace wp2p::bt {
namespace {

TEST(Bitfield, StartsEmpty) {
  Bitfield bf{10};
  EXPECT_EQ(bf.size(), 10);
  EXPECT_EQ(bf.count(), 0);
  EXPECT_TRUE(bf.none());
  EXPECT_FALSE(bf.all());
}

TEST(Bitfield, SetAndTest) {
  Bitfield bf{10};
  bf.set(3);
  bf.set(9);
  EXPECT_TRUE(bf.test(3));
  EXPECT_TRUE(bf.test(9));
  EXPECT_FALSE(bf.test(4));
  EXPECT_EQ(bf.count(), 2);
}

TEST(Bitfield, SetIsIdempotent) {
  Bitfield bf{4};
  bf.set(1);
  bf.set(1);
  EXPECT_EQ(bf.count(), 1);
}

TEST(Bitfield, ResetClearsBit) {
  Bitfield bf{4};
  bf.set(2);
  bf.reset(2);
  bf.reset(2);
  EXPECT_FALSE(bf.test(2));
  EXPECT_EQ(bf.count(), 0);
}

TEST(Bitfield, SetAllAndAll) {
  Bitfield bf{17};  // crosses byte boundaries
  bf.set_all();
  EXPECT_TRUE(bf.all());
  EXPECT_EQ(bf.count(), 17);
}

TEST(Bitfield, FirstMissing) {
  Bitfield bf{5};
  EXPECT_EQ(bf.first_missing(), 0);
  bf.set(0);
  bf.set(1);
  bf.set(3);
  EXPECT_EQ(bf.first_missing(), 2);
  bf.set(2);
  bf.set(4);
  EXPECT_EQ(bf.first_missing(), -1);
}

TEST(Bitfield, PrefixLength) {
  Bitfield bf{6};
  EXPECT_EQ(bf.prefix_length(), 0);
  bf.set(0);
  bf.set(1);
  bf.set(4);
  EXPECT_EQ(bf.prefix_length(), 2);
  bf.set(2);
  bf.set(3);
  EXPECT_EQ(bf.prefix_length(), 5);
}

TEST(Bitfield, HasMissingPiece) {
  Bitfield peer{8}, mine{8};
  peer.set(3);
  EXPECT_TRUE(Bitfield::has_missing_piece(peer, mine));
  mine.set(3);
  EXPECT_FALSE(Bitfield::has_missing_piece(peer, mine));
  mine.set(5);  // we have more; peer still offers nothing new
  EXPECT_FALSE(Bitfield::has_missing_piece(peer, mine));
}

TEST(Bitfield, ByteSizeMatchesWireEncoding) {
  EXPECT_EQ(Bitfield{8}.byte_size(), 1);
  EXPECT_EQ(Bitfield{9}.byte_size(), 2);
  EXPECT_EQ(Bitfield{400}.byte_size(), 50);
  EXPECT_EQ(Bitfield{0}.byte_size(), 0);
}

TEST(Bitfield, ForEachSetVisitsSetBitsInOrder) {
  for (int size : {0, 1, 63, 64, 65, 130, 2752}) {
    Bitfield bf{size};
    for (int i = 0; i < size; ++i) {
      if ((i * 7919) % 5 < 2 || i == size - 1) bf.set(i);
    }
    std::vector<int> expected, seen;
    for (int i = 0; i < size; ++i) {
      if (bf.test(i)) expected.push_back(i);
    }
    bf.for_each_set([&](int i) { seen.push_back(i); });
    EXPECT_EQ(seen, expected) << "size " << size;
  }
}

TEST(Bitfield, ClearResets) {
  Bitfield bf{12};
  bf.set_all();
  bf.clear();
  EXPECT_TRUE(bf.none());
}


TEST(Bitfield, WordAccessorsExposePackedStorage) {
  Bitfield bf{130};  // 3 words, 2-bit tail
  ASSERT_EQ(bf.word_count(), 3);
  bf.set(0);
  bf.set(63);
  bf.set(64);
  bf.set(129);
  EXPECT_EQ(bf.word(0), (std::uint64_t{1} << 63) | 1u);
  EXPECT_EQ(bf.word(1), std::uint64_t{1});
  EXPECT_EQ(bf.word(2), std::uint64_t{1} << 1);
}

TEST(Bitfield, SetAllKeepsBitsPastSizeZero) {
  Bitfield bf{70};  // 6-bit tail in word 1
  bf.set_all();
  EXPECT_TRUE(bf.all());
  EXPECT_EQ(bf.word(1), (std::uint64_t{1} << 6) - 1);
  EXPECT_EQ(bf.first_missing(), -1);
}

}  // namespace
}  // namespace wp2p::bt
