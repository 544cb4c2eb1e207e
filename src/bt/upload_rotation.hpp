// The upload pump's round-robin walk over a client's peers.
//
// Peers sit at indices 0..n-1 (Client::peers_, in admission order). A walk
// starts at index `cursor % n`, moves up one index at a time and wraps, and
// ends once n consecutive indices have gone by without a serve, so a peer
// served once can be served again on the same walk. With a tight token budget
// the cursor is what keeps later peers from starving: the next walk starts
// where this one left off.
//
// Only peers with queued uploads can be served, so the walk jumps from one to
// the next instead of stepping over idle indices: `next_pending(i)` returns
// the first such index at or after i, cyclically, or n when there is none.
// `visit(i)` serves index i or not, or stops the walk (the token bucket
// refused). The result is the cursor for the next walk: one past the stopping
// visit, else one past the last serve, else the starting index — exactly
// where a walk that stepped over every index would have left it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace wp2p::bt {

enum class Visit : std::uint8_t { kIdle, kServed, kStop };

template <typename NextPending, typename VisitFn>
std::size_t walk_round_robin(std::size_t n, std::size_t cursor, NextPending&& next_pending,
                             VisitFn&& visit) {
  std::size_t pos = cursor % n;  // the next index the walk reaches
  std::size_t left = n;          // indices the walk may still pass without a serve
  for (;;) {
    const std::size_t i = next_pending(pos);
    if (i >= n) break;
    const std::size_t gap = i >= pos ? i - pos : i + n - pos;
    if (gap >= left) break;
    left -= gap + 1;
    pos = i + 1 == n ? 0 : i + 1;
    const Visit outcome = visit(i);
    if (outcome == Visit::kStop) return pos;
    if (outcome == Visit::kServed) left = n;
  }
  return (pos + left) % n;  // past the idle indices that end the walk
}

}  // namespace wp2p::bt
