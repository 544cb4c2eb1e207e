#include "net/queue.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "tcp/segment.hpp"

namespace wp2p::net {
namespace {

Packet make_packet(std::int64_t size) {
  Packet p;
  p.size = size;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q{10};
  q.push(make_packet(1));
  q.push(make_packet(2));
  q.push(make_packet(3));
  EXPECT_EQ(q.pop().size, 1);
  EXPECT_EQ(q.pop().size, 2);
  EXPECT_EQ(q.pop().size, 3);
  EXPECT_TRUE(q.empty());
}

TEST(DropTailQueue, TracksBytes) {
  DropTailQueue q{10};
  q.push(make_packet(100));
  q.push(make_packet(200));
  EXPECT_EQ(q.bytes(), 300);
  q.pop();
  EXPECT_EQ(q.bytes(), 200);
}

TEST(DropTailQueue, DropsAtLimit) {
  DropTailQueue q{2};
  EXPECT_TRUE(q.push(make_packet(1)));
  EXPECT_TRUE(q.push(make_packet(2)));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(make_packet(3)));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.size(), 2u);
}

TEST(DropTailQueue, DropCallbackFires) {
  DropTailQueue q{1};
  std::int64_t dropped_size = 0;
  q.on_drop = [&](const Packet& p) { dropped_size = p.size; };
  q.push(make_packet(1));
  q.push(make_packet(99));
  EXPECT_EQ(dropped_size, 99);
}

TEST(DropTailQueue, ClearEmptiesEverything) {
  DropTailQueue q{5};
  q.push(make_packet(1));
  q.push(make_packet(2));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0);
}

TEST(DropTailQueue, RingKeepsFifoAcrossWrapAndGrowth) {
  // Interleaved pushes and pops wrap the ring's head around, and pushes past
  // its size grow it mid-wrap; order, bytes and the limit must not notice.
  DropTailQueue q{50};
  std::int64_t next_in = 1, next_out = 1, bytes = 0;
  for (int round = 0; round < 200; ++round) {
    const int pushes = 1 + round % 7, pops = round % 5;
    for (int i = 0; i < pushes; ++i) {
      const bool room = q.size() < 50;
      ASSERT_EQ(q.push(make_packet(next_in)), room);
      if (room) bytes += next_in++;
    }
    for (int i = 0; i < pops && !q.empty(); ++i) {
      const Packet p = q.pop();
      EXPECT_EQ(p.size, next_out++);
      bytes -= p.size;
    }
    ASSERT_EQ(q.bytes(), bytes);
    ASSERT_EQ(static_cast<std::int64_t>(q.size()), next_in - next_out);
    ASSERT_LE(q.size(), 50u);
  }
  EXPECT_GT(q.drops(), 0u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.push(make_packet(7)));
  EXPECT_EQ(q.pop().size, 7);
}

TEST(DropTailQueue, PopAndClearReleasePayloads) {
  DropTailQueue q{4};
  const std::shared_ptr<tcp::Segment> seg = tcp::Segment::alloc();
  for (int i = 0; i < 3; ++i) {
    Packet p = make_packet(1);
    p.payload = seg;
    q.push(std::move(p));
  }
  q.pop();
  EXPECT_EQ(seg.use_count(), 3);
  q.clear();
  EXPECT_EQ(seg.use_count(), 1);
}

}  // namespace
}  // namespace wp2p::net
