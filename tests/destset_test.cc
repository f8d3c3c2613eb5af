// DestSet: the wide destination-set type that replaced the protocol's u32
// destination bitmasks (which silently capped BBP at 32 procs). Covers the
// inline/heap boundary at rank 64, set algebra, and an end-to-end BBP
// round-trip to ranks the old mask could not address.
#include <gtest/gtest.h>

#include <vector>

#include "bbp/destset.h"
#include "harness/cluster.h"

namespace scrnet::bbp {
namespace {

DestSet single(u32 r) {
  DestSet s;
  s.set(r);
  return s;
}

std::vector<u32> members(const DestSet& s) {
  std::vector<u32> out;
  s.for_each([&](u32 r) { out.push_back(r); });
  return out;
}

TEST(DestSet, InlineHeapBoundary) {
  DestSet s;
  EXPECT_TRUE(s.empty());
  s.set(63);
  EXPECT_TRUE(s.test(63));
  EXPECT_FALSE(s.test(64));
  EXPECT_EQ(s.count(), 1u);

  s.set(64);  // first heap-word rank
  s.set(65);
  EXPECT_TRUE(s.test(64));
  EXPECT_TRUE(s.test(65));
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(members(s), (std::vector<u32>{63, 64, 65}));

  // Clearing the heap ranks must restore the all-inline representation so
  // equality with a never-spilled set still holds.
  s.clear(64);
  s.clear(65);
  EXPECT_EQ(s, single(63));
  EXPECT_EQ(s.count(), 1u);
}

TEST(DestSet, WithinBoundaries) {
  EXPECT_TRUE(DestSet().within(0));
  EXPECT_TRUE(single(31).within(32));
  EXPECT_FALSE(single(32).within(32));
  EXPECT_TRUE(single(63).within(64));
  // Word-boundary proc counts: rank 64 is out of range for a 64-proc
  // world and in range from 65 on.
  EXPECT_FALSE(single(64).within(64));
  EXPECT_TRUE(single(64).within(65));
  EXPECT_FALSE(single(65).within(65));
  EXPECT_TRUE(single(127).within(128));
  EXPECT_FALSE(single(128).within(128));
  EXPECT_TRUE(single(128).within(129));
  // A cleared-back-to-canonical set has no phantom high ranks.
  DestSet s = single(200);
  s.clear(200);
  EXPECT_TRUE(s.within(1));
}

TEST(DestSet, SetAlgebra) {
  DestSet a;
  a.set(2);
  a.set(70);
  DestSet b;
  b.set(2);
  b.set(130);
  a.or_with(b);
  EXPECT_EQ(members(a), (std::vector<u32>{2, 70, 130}));
  EXPECT_EQ(a.count(), 3u);
  EXPECT_TRUE(a.within(131));
  EXPECT_FALSE(a.within(130));

  // or_with a shorter set must not truncate the longer one.
  DestSet c = single(1);
  a.or_with(c);
  EXPECT_EQ(members(a), (std::vector<u32>{1, 2, 70, 130}));

  a.clear(130);
  a.clear(70);
  DestSet expect;
  expect.set(1);
  expect.set(2);
  EXPECT_EQ(a, expect);
}

// Regression for the old `post(u32 dest_mask, ...)` API: a 32-bit mask made
// rank 32 unaddressable and anything past 63 unrepresentable. A message to
// a high rank must round-trip, including the heap-word region (rank >= 64).
TEST(DestSetBbp, HighRankRoundTrip) {
  constexpr u32 kProcs = 72;
  constexpr u32 kFar = 70;   // heap-word rank
  constexpr u32 kMid = 33;   // first rank the u32 mask path dropped
  u32 far_got = 0, mid_got = 0, echo_got = 0;
  harness::run_scramnet_bbp(
      kProcs,
      [&](sim::Process&, bbp::Endpoint& ep) {
        const u32 me = ep.rank();
        std::vector<u8> buf(8);
        if (me == 0) {
          const std::vector<u32> dests{kMid, kFar};
          const std::vector<u8> msg{1, 2, 3, 4};
          ASSERT_TRUE(ep.mcast(dests, msg).ok());
          ASSERT_TRUE(ep.recv(kFar, buf).ok());
          echo_got = buf[0];
        } else if (me == kMid) {
          ASSERT_TRUE(ep.recv(0, buf).ok());
          mid_got = buf[2];
        } else if (me == kFar) {
          ASSERT_TRUE(ep.recv(0, buf).ok());
          far_got = buf[3];
          const std::vector<u8> echo{9};
          ASSERT_TRUE(ep.send(0, echo).ok());
        }
      });
  EXPECT_EQ(mid_got, 3u);
  EXPECT_EQ(far_got, 4u);
  EXPECT_EQ(echo_got, 9u);
}

}  // namespace
}  // namespace scrnet::bbp
