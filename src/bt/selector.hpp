// Piece selection strategies.
//
// The default BitTorrent policy is rarest-first (Section 2.2 of the paper);
// sequential and random are provided as baselines, and the wP2P
// mobility-aware selector (core/) composes sequential + rarest-first.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sim/rng.hpp"

namespace wp2p::bt {

struct SelectionContext {
  // Piece indices the requesting peer has, we lack, and are not in progress.
  std::span<const int> candidates;
  // Swarm-wide availability count per piece (indexed by piece).
  const std::vector<int>& availability;
  // Fraction of the file already downloaded (drives wP2P's pr schedule).
  double downloaded_fraction = 0.0;
  sim::Rng& rng;
};

class PieceSelector {
 public:
  virtual ~PieceSelector() = default;
  // Pick a piece from ctx.candidates (never empty), or -1 to decline.
  virtual int pick(const SelectionContext& ctx) = 0;
  virtual const char* name() const = 0;
};

// Rarest-first: minimum availability; ties broken uniformly at random.
class RarestFirstSelector final : public PieceSelector {
 public:
  int pick(const SelectionContext& ctx) override;
  const char* name() const override { return "rarest-first"; }
};

// Strict in-order fetching.
class SequentialSelector final : public PieceSelector {
 public:
  int pick(const SelectionContext& ctx) override;
  const char* name() const override { return "sequential"; }
};

// Uniform random (early BitTorrent / baseline).
class RandomSelector final : public PieceSelector {
 public:
  int pick(const SelectionContext& ctx) override;
  const char* name() const override { return "random"; }
};

// Streaming-window policy (deadline-style baseline, contrast to wP2P MF):
// strictly in-order inside a sliding window of `window` pieces ahead of the
// playback frontier (the lowest missing piece), rarest-first beyond it when
// the whole window is already requested or unavailable from this peer.
class StreamingWindowSelector final : public PieceSelector {
 public:
  explicit StreamingWindowSelector(int window = 8) : window_{window} {}
  int pick(const SelectionContext& ctx) override;
  const char* name() const override { return "streaming-window"; }
  int window() const { return window_; }

 private:
  int window_;
  RarestFirstSelector rarest_;
};

}  // namespace wp2p::bt
