// Piece-presence bitfield (the BitTorrent "bitfield" message body).
//
// Backed by 64-bit words so piece bookkeeping scales: interest tests,
// candidate collection, and prefix scans run word-at-a-time instead of
// bit-at-a-time. The wire encoding (byte_size, MSB-first bytes) is unchanged —
// serialization goes through test(), not the storage layout.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace wp2p::bt {

class Bitfield {
 public:
  Bitfield() = default;
  explicit Bitfield(int size)
      : size_{size}, words_(static_cast<std::size_t>((size + 63) / 64), 0) {
    WP2P_ASSERT(size >= 0);
  }

  int size() const { return size_; }
  int count() const { return count_; }
  bool empty() const { return size_ == 0; }
  bool all() const { return count_ == size_; }
  bool none() const { return count_ == 0; }

  bool test(int i) const {
    check(i);
    return (words_[static_cast<std::size_t>(i >> 6)] >> (i & 63)) & 1;
  }

  void set(int i) {
    check(i);
    std::uint64_t& word = words_[static_cast<std::size_t>(i >> 6)];
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (!(word & mask)) {
      word |= mask;
      ++count_;
    }
  }

  void reset(int i) {
    check(i);
    std::uint64_t& word = words_[static_cast<std::size_t>(i >> 6)];
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (word & mask) {
      word &= ~mask;
      --count_;
    }
  }

  void set_all() {
    if (size_ == 0) return;
    std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
    const int tail = size_ & 63;
    if (tail != 0) words_.back() = (std::uint64_t{1} << tail) - 1;
    count_ = size_;
  }

  void clear() {
    std::fill(words_.begin(), words_.end(), 0);
    count_ = 0;
  }

  // Word-level access for bulk set operations (candidate collection computes
  // peer & ~mine & ~active one word at a time). Bits past size() are zero.
  int word_count() const { return static_cast<int>(words_.size()); }
  std::uint64_t word(int w) const { return words_[static_cast<std::size_t>(w)]; }

  // Calls f(i) for every set index i, in increasing order, a word at a time.
  template <typename F>
  void for_each_set(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        f(static_cast<int>(w) * 64 + std::countr_zero(bits));
      }
    }
  }

  // First index not set, or -1 when complete.
  int first_missing() const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const std::uint64_t missing = ~words_[w];
      if (missing != 0) {
        const int i = static_cast<int>(w) * 64 + std::countr_zero(missing);
        return i < size_ ? i : -1;
      }
    }
    return -1;
  }

  // Length of the contiguous set prefix (the playability-relevant quantity).
  int prefix_length() const {
    const int missing = first_missing();
    return missing < 0 ? size_ : missing;
  }

  // True if `peer` has at least one piece that `mine` lacks (interest test).
  static bool has_missing_piece(const Bitfield& peer, const Bitfield& mine) {
    WP2P_ASSERT(peer.size() == mine.size());
    for (std::size_t i = 0; i < peer.words_.size(); ++i) {
      if (peer.words_[i] & ~mine.words_[i]) return true;
    }
    return false;
  }

  // Serialized length of the wire message body.
  std::int64_t byte_size() const { return (size_ + 7) / 8; }

  bool operator==(const Bitfield&) const = default;

 private:
  void check(int i) const { WP2P_ASSERT_MSG(i >= 0 && i < size_, "bitfield index"); }

  int size_ = 0;
  int count_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace wp2p::bt
