// Unit tests for the ADI engine against a deterministic in-memory mock
// channel device -- exercising matching-queue mechanics, the rendezvous
// state machine and envelope encoding without any network model.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "scrmpi/adi.h"

namespace scrnet::scrmpi {
namespace {

/// A pair of loopback devices sharing in-memory queues. No timing, no sim:
/// the clock stays at 0, cpu() is a no-op and spin_until is a plain loop
/// that fails the test after 1000 empty passes (a spin here would
/// otherwise hang the test). Tests push stray packets straight into a
/// rank's queue.
class MockFabric {
 public:
  explicit MockFabric(u32 n) : queues_(n) {}
  std::vector<std::deque<Packet>> queues_;
};

class MockDevice final : public ChannelDevice {
 public:
  MockDevice(MockFabric& fab, u32 rank, u32 size)
      : fab_(fab), rank_(rank), size_(size) {}

  std::string_view kind() const override { return "mock"; }
  u32 rank() const override { return rank_; }
  u32 size() const override { return size_; }

  /// A send fails with kTimedOut (the device's bounded wait expired) while
  /// fail_sends_ is set; nothing reaches the queue.
  Status send_packet(u32 dst, const PktHeader& hdr,
                     std::span<const u8> payload) override {
    if (fail_sends_) return Status::TimedOut("mock: send gave up");
    Packet p;
    p.hdr = hdr;
    p.payload.assign(payload.begin(), payload.end());
    fab_.queues_[dst].push_back(std::move(p));
    ++sent_;
    return Status::Ok();
  }

  std::optional<Packet> poll_packet() override {
    auto& q = fab_.queues_[rank_];
    if (q.empty()) return std::nullopt;
    Packet p = std::move(q.front());
    q.pop_front();
    return p;
  }

  SimTime pack_cost(u32 len) const override { return ns(1) * len; }
  SimTime unpack_cost(u32 len) const override { return ns(1) * len; }
  SimTime now() const override { return 0; }
  void cpu(SimTime) override {}
  bool spin_until(const char*, SimTime, sim::FnRef<bool()> ready) override {
    while (!ready()) {
      if (++stalls_ >= 1000) {
        ADD_FAILURE() << "livelock";
        return false;
      }
    }
    return true;
  }
  u32 eager_limit() const override { return 4096; }

  u64 sent_ = 0;
  int stalls_ = 0;
  bool fail_sends_ = false;

 private:
  MockFabric& fab_;
  u32 rank_, size_;
};

struct Pair {
  MockFabric fab{2};
  MockDevice d0{fab, 0, 2};
  MockDevice d1{fab, 1, 2};
  Engine e0{d0};
  Engine e1{d1};
};

/// Registered put target, shared by both ends of a PutMockDevice pair (the
/// receiver reserves, the sender resolves the rkey) -- a two-line stand-in
/// for the fabric's registered-memory table.
struct MockRegion {
  std::span<u8> dest;
  bool live = false;
};

/// MockDevice plus the optional zero-copy capability: rndv_put is a direct
/// memcpy into the receiver-reserved span followed by the FIN packet. Also
/// keeps a crude clock (each empty spin pass advances 1 us) so op_timeout
/// tests work.
class PutMockDevice final : public ChannelDevice, public RndvPut {
 public:
  PutMockDevice(MockFabric& fab, std::vector<MockRegion>& regions, u32 rank,
                u32 size)
      : fab_(fab), regions_(regions), rank_(rank), size_(size) {}

  std::string_view kind() const override { return "mock"; }
  u32 rank() const override { return rank_; }
  u32 size() const override { return size_; }

  Status send_packet(u32 dst, const PktHeader& hdr,
                     std::span<const u8> payload) override {
    if (fail_sends_) return Status::TimedOut("mock: send gave up");
    Packet p;
    p.hdr = hdr;
    p.payload.assign(payload.begin(), payload.end());
    fab_.queues_[dst].push_back(std::move(p));
    ++sent_;
    return Status::Ok();
  }

  std::optional<Packet> poll_packet() override {
    auto& q = fab_.queues_[rank_];
    if (q.empty()) return std::nullopt;
    Packet p = std::move(q.front());
    q.pop_front();
    return p;
  }

  SimTime pack_cost(u32 len) const override { return ns(1) * len; }
  SimTime unpack_cost(u32 len) const override { return ns(1) * len; }
  SimTime now() const override { return now_; }
  void cpu(SimTime) override {}
  bool spin_until(const char*, SimTime deadline, sim::FnRef<bool()> ready) override {
    while (!ready()) {
      if (deadline != 0 && now_ >= deadline) return false;
      now_ += us(1);
    }
    return true;
  }
  u32 eager_limit() const override { return 4096; }

  RndvPut* put() override { return this; }

  Result<RndvPlacement> rndv_reserve(u32 bytes, std::span<u8> dest) override {
    if (reserve_fail_) return Status::NoSpace("mock window exhausted");
    regions_.push_back(MockRegion{dest.first(bytes), true});
    RndvPlacement pl;
    pl.bytes = bytes;
    pl.rkey = static_cast<u32>(regions_.size());
    return pl;
  }

  Status rndv_put(u32 dst, const RndvPlacement& pl,
                  std::span<const u8> payload, const PktHeader& fin_hdr) override {
    MockRegion& r = regions_.at(pl.rkey - 1);
    if (r.live && !payload.empty()) {
      std::memcpy(r.dest.data(), payload.data(),
                  std::min(payload.size(), r.dest.size()));
    }
    if (!r.live) ++dead_puts_;
    ++puts_;
    return send_packet(dst, fin_hdr, {});
  }

  Status rndv_complete(const RndvPlacement&, std::span<u8>, u32) override {
    return Status::Ok();  // the put already landed in the posted buffer
  }

  void rndv_release(const RndvPlacement& pl) override {
    regions_.at(pl.rkey - 1).live = false;
  }

  u64 sent_ = 0;
  u64 puts_ = 0;
  u64 dead_puts_ = 0;
  bool reserve_fail_ = false;
  bool fail_sends_ = false;

 private:
  MockFabric& fab_;
  std::vector<MockRegion>& regions_;
  u32 rank_, size_;
  SimTime now_ = 0;
};

struct PutPair {
  MockFabric fab{2};
  std::vector<MockRegion> regions;
  PutMockDevice d0{fab, regions, 0, 2};
  PutMockDevice d1{fab, regions, 1, 2};
  Engine e0{d0};
  Engine e1{d1};
};

TEST(HeaderCodec, RoundTripsAllFields) {
  PktHeader h;
  h.kind = PktKind::kRndvCts;
  h.ctx = 0xBEEF;
  h.tag = -12345;
  h.src = 777;
  h.len = 0xDEAD;
  h.aux = 0xC0FFEE;
  u32 words[kHeaderWords];
  encode_header(h, words);
  const PktHeader r = decode_header(words);
  EXPECT_EQ(r.kind, h.kind);
  EXPECT_EQ(r.ctx, h.ctx);
  EXPECT_EQ(r.tag, h.tag);
  EXPECT_EQ(r.src, h.src);
  EXPECT_EQ(r.len, h.len);
  EXPECT_EQ(r.aux, h.aux);
}

TEST(HeaderCodec, FrameIsTheEnvelopeThenExactlyItsPayload) {
  PktHeader h;
  h.kind = PktKind::kShort;
  h.tag = 9;
  h.len = 3;
  const std::vector<u8> bytes = frame_packet(h, std::vector<u8>{7, 8, 9});
  ASSERT_EQ(bytes.size(), kHeaderBytes + 3);
  const std::optional<Packet> pkt = unframe_packet(bytes);
  ASSERT_TRUE(pkt);
  EXPECT_EQ(pkt->hdr.tag, 9);
  EXPECT_EQ(pkt->payload, (std::vector<u8>{7, 8, 9}));
  // A runt, and frames one byte short or long of the envelope's len.
  EXPECT_FALSE(unframe_packet(std::vector<u8>(bytes.begin(), bytes.begin() + 19)));
  EXPECT_FALSE(unframe_packet(std::vector<u8>(bytes.begin(), bytes.end() - 1)));
  std::vector<u8> longer = bytes;
  longer.push_back(0);
  EXPECT_FALSE(unframe_packet(longer));
}

TEST(Engine, ShortMessageMatchesPostedRecv) {
  Pair p;
  std::vector<u8> buf(8, 0);
  Request rr = p.e1.irecv(0, /*ctx=*/1, /*tag=*/5, buf);
  std::vector<u8> msg{1, 2, 3, 4};
  Request sr = p.e0.isend(1, 1, 5, msg);
  p.e0.wait(sr);
  const MpiStatus st = p.e1.wait(rr);
  EXPECT_EQ(st.count_bytes, 4u);
  EXPECT_EQ(st.tag, 5);
  EXPECT_EQ(buf[2], 3);
}

TEST(Engine, UnexpectedMessageConsumedByLaterRecv) {
  Pair p;
  std::vector<u8> msg{9, 9};
  p.e0.wait(p.e0.isend(1, 1, 7, msg));
  // Force the packet into e1's unexpected queue.
  p.e1.progress();
  EXPECT_EQ(p.e1.unexpected_depth(), 1u);
  std::vector<u8> buf(2);
  const MpiStatus st = p.e1.wait(p.e1.irecv(0, 1, 7, buf));
  EXPECT_EQ(st.count_bytes, 2u);
  EXPECT_EQ(p.e1.unexpected_depth(), 0u);
}

TEST(Engine, ContextIsolatesIdenticalTags) {
  Pair p;
  std::vector<u8> a{1}, b{2};
  p.e0.wait(p.e0.isend(1, /*ctx=*/10, 0, a));
  p.e0.wait(p.e0.isend(1, /*ctx=*/20, 0, b));
  std::vector<u8> got_b(1), got_a(1);
  p.e1.wait(p.e1.irecv(0, 20, 0, got_b));
  p.e1.wait(p.e1.irecv(0, 10, 0, got_a));
  EXPECT_EQ(got_a[0], 1);
  EXPECT_EQ(got_b[0], 2);
}

TEST(Engine, PostedQueueMatchesInFifoOrder) {
  Pair p;
  std::vector<u8> b1(4), b2(4);
  Request r1 = p.e1.irecv(kAnySource, 1, kAnyTag, b1);
  Request r2 = p.e1.irecv(kAnySource, 1, kAnyTag, b2);
  std::vector<u8> m1{1, 0, 0, 0}, m2{2, 0, 0, 0};
  p.e0.wait(p.e0.isend(1, 1, 0, m1));
  p.e0.wait(p.e0.isend(1, 1, 0, m2));
  p.e1.wait(r1);
  p.e1.wait(r2);
  EXPECT_EQ(b1[0], 1);  // first posted gets first arrival
  EXPECT_EQ(b2[0], 2);
}

TEST(Engine, RendezvousStateMachine) {
  Pair p;
  std::vector<u8> big(10000, 0);
  fill_pattern(big, 3);
  Request sr = p.e0.isend(1, 1, 0, big);  // above the 4096 eager limit
  // RTS should be on the wire; sender incomplete.
  EXPECT_FALSE(p.e0.test(sr).has_value());
  std::vector<u8> buf(10000);
  Request rr = p.e1.irecv(0, 1, 0, buf);
  // Receiver matched the RTS and sent the CTS; pump both sides.
  p.e1.progress();
  p.e0.progress();  // sender sees CTS -> ships data
  p.e1.progress();  // receiver consumes data
  const auto st = p.e1.test(rr);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->count_bytes, 10000u);
  EXPECT_TRUE(check_pattern(buf, 3));
  EXPECT_TRUE(p.e0.test(sr).has_value());
}

TEST(Engine, ProbeSeesRndvFullLength) {
  Pair p;
  std::vector<u8> big(8192, 1);
  Request sr = p.e0.isend(1, 1, 3, big);
  p.e1.progress();  // RTS lands unexpected
  const auto st = p.e1.iprobe(0, 1, 3);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->count_bytes, 8192u);  // not the 4-byte RTS payload
  std::vector<u8> buf(8192);
  Request rr = p.e1.irecv(0, 1, 3, buf);  // grants the rendezvous (CTS out)
  p.e0.progress();                        // sender ships the data on CTS
  p.e1.wait(rr);
  p.e0.wait(sr);
}

TEST(Engine, IprobeDoesNotConsume) {
  Pair p;
  std::vector<u8> m{5};
  p.e0.wait(p.e0.isend(1, 1, 9, m));
  p.e1.progress();
  EXPECT_TRUE(p.e1.iprobe(0, 1, 9).has_value());
  EXPECT_TRUE(p.e1.iprobe(0, 1, 9).has_value());  // still there
  std::vector<u8> buf(1);
  p.e1.wait(p.e1.irecv(0, 1, 9, buf));
  EXPECT_FALSE(p.e1.iprobe(0, 1, 9).has_value());
}

TEST(Engine, RequestSlotsAreReused) {
  Pair p;
  std::vector<u8> m{1};
  std::vector<u8> buf(1);
  // Many sequential operations must not grow the request table unboundedly:
  // wait() frees slots, so the same indices recycle.
  for (int i = 0; i < 200; ++i) {
    Request rr = p.e1.irecv(0, 1, 0, buf);
    Request sr = p.e0.isend(1, 1, 0, m);
    EXPECT_LT(rr.idx, 4u);
    EXPECT_LT(sr.idx, 4u);
    p.e0.wait(sr);
    p.e1.wait(rr);
  }
}

TEST(Engine, WildcardTagAndSourceTakeFirstMatch) {
  MockFabric fab(3);
  MockDevice d0(fab, 0, 3), d1(fab, 1, 3), d2(fab, 2, 3);
  Engine e0(d0), e1(d1), e2(d2);
  std::vector<u8> a{10}, b{20};
  e0.wait(e0.isend(2, 1, 100, a));
  e1.wait(e1.isend(2, 1, 200, b));
  std::vector<u8> buf(1);
  const MpiStatus st = e2.wait(e2.irecv(kAnySource, 1, kAnyTag, buf));
  EXPECT_EQ(buf[0], 10);  // arrival order: e0's packet queued first
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 100);
}

TEST(Engine, CollectiveTransportCountsAndReleases) {
  Pair p;
  // Barrier bookkeeping: arrivals counted per (ctx, epoch); release epochs
  // are monotonic.
  p.e0.coll_send(1, /*ctx=*/3, PktKind::kCollBarrier, /*epoch=*/1, {});
  p.e0.coll_send(1, 3, PktKind::kCollBarrier, 1, {});
  p.e1.coll_wait_arrivals(3, 1, 2);  // returns without spinning forever
  p.e1.coll_send(0, 3, PktKind::kCollRelease, 1, {});
  p.e0.coll_wait_release(3, 1);
  SUCCEED();
}

TEST(Engine, ProtocolBoundariesAreExact) {
  // The eager/rendezvous switch point is inclusive: exactly
  // eager_limit() still leaves in one eager packet; one byte more goes
  // rendezvous.
  Pair p;
  const u32 el = p.d0.eager_limit();  // 4096
  const struct {
    u32 bytes;
    PktKind kind;
  } cases[] = {{el, PktKind::kShort}, {el + 1, PktKind::kRndvRts}};
  i32 tag = 0;
  for (const auto& c : cases) {
    std::vector<u8> msg(c.bytes);
    fill_pattern(msg, static_cast<u32>(tag) + 1);
    Request sr = p.e0.isend(1, 1, tag, msg);
    ASSERT_FALSE(p.fab.queues_[1].empty());
    EXPECT_EQ(p.fab.queues_[1].back().hdr.kind, c.kind) << c.bytes << " bytes";
    std::vector<u8> buf(c.bytes);
    Request rr = p.e1.irecv(0, 1, tag, buf);
    std::optional<MpiStatus> st;  // test() consumes the completed request
    for (int i = 0; i < 4 && !(st = p.e1.test(rr)).has_value(); ++i) {
      p.e1.progress();
      p.e0.progress();
    }
    ASSERT_TRUE(st.has_value()) << c.bytes << " bytes";
    EXPECT_TRUE(check_pattern(buf, static_cast<u32>(tag) + 1));
    p.e0.wait(sr);
    ++tag;
  }
}

TEST(Engine, ZeroCopyRendezvousPutsStraightIntoPostedBuffer) {
  PutPair p;
  std::vector<u8> big(10000);
  fill_pattern(big, 7);
  Request sr = p.e0.isend(1, 1, 0, big);
  EXPECT_EQ(p.e0.rndv_rts(), 1u);
  std::vector<u8> buf(10000);
  Request rr = p.e1.irecv(0, 1, 0, buf);
  p.e1.progress();  // RTS -> CTS carrying the placement
  EXPECT_EQ(p.e1.rndv_cts(), 1u);
  ASSERT_EQ(p.regions.size(), 1u);
  EXPECT_TRUE(p.regions[0].live);
  p.e0.progress();  // CTS -> direct put + FIN
  EXPECT_EQ(p.e0.rndv_puts(), 1u);
  EXPECT_EQ(p.e0.zero_copy_bytes(), 10000u);
  p.e1.progress();  // FIN completes the receive
  const auto st = p.e1.test(rr);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->count_bytes, 10000u);
  EXPECT_FALSE(st->truncated);
  EXPECT_TRUE(check_pattern(buf, 7));
  EXPECT_EQ(p.e1.rndv_fins(), 1u);
  EXPECT_FALSE(p.regions[0].live);  // placement released at completion
  EXPECT_TRUE(p.e0.test(sr).has_value());
  // Only the RTS and FIN crossed as packets: the payload never rode a
  // kRndvData frame (that is the copy the protocol exists to kill).
  EXPECT_EQ(p.d0.sent_, 2u);
}

TEST(Engine, RendezvousFallsBackToCopyWhenReserveFails) {
  PutPair p;
  p.d1.reserve_fail_ = true;  // window exhausted on the receiver
  std::vector<u8> big(10000);
  fill_pattern(big, 5);
  Request sr = p.e0.isend(1, 1, 0, big);
  std::vector<u8> buf(10000);
  Request rr = p.e1.irecv(0, 1, 0, buf);
  p.e1.progress();
  p.e0.progress();
  p.e1.progress();
  const auto st = p.e1.test(rr);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->count_bytes, 10000u);
  EXPECT_TRUE(check_pattern(buf, 5));
  EXPECT_TRUE(p.e0.test(sr).has_value());
  // Copy path: no puts, no zero-copy bytes, no FIN -- and an empty
  // region table proves no placement leaked from the failed reserve.
  EXPECT_EQ(p.e0.rndv_puts(), 0u);
  EXPECT_EQ(p.e0.zero_copy_bytes(), 0u);
  EXPECT_EQ(p.e1.rndv_fins(), 0u);
  EXPECT_TRUE(p.regions.empty());
}

TEST(Engine, ZeroCopyTruncatesToPostedBuffer) {
  PutPair p;
  std::vector<u8> big(10000);
  fill_pattern(big, 9);
  Request sr = p.e0.isend(1, 1, 0, big);
  std::vector<u8> buf(4000);  // smaller than the message
  Request rr = p.e1.irecv(0, 1, 0, buf);
  p.e1.progress();
  p.e0.progress();
  p.e1.progress();
  const auto st = p.e1.test(rr);
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->truncated);
  // The placement (and the put) covered only the posted 4000 bytes.
  EXPECT_EQ(p.e0.zero_copy_bytes(), 4000u);
  EXPECT_TRUE(check_pattern(buf, 9));
  p.e0.wait(sr);
}

TEST(Engine, EagerCapForcesRendezvousBelowDeviceLimit) {
  MockFabric fab(2);
  std::vector<MockRegion> regions;
  PutMockDevice d0(fab, regions, 0, 2), d1(fab, regions, 1, 2);
  LayerCosts costs;
  costs.eager_cap = 64;  // device says 4096; the cap wins
  Engine e0(d0, costs), e1(d1, costs);
  EXPECT_EQ(e0.effective_eager_limit(), 64u);
  std::vector<u8> msg(100);
  fill_pattern(msg, 2);
  Request sr = e0.isend(1, 1, 0, msg);
  ASSERT_EQ(fab.queues_[1].size(), 1u);
  EXPECT_EQ(fab.queues_[1][0].hdr.kind, PktKind::kRndvRts);
  std::vector<u8> buf(100);
  Request rr = e1.irecv(0, 1, 0, buf);
  e1.progress();
  e0.progress();
  e1.progress();
  ASSERT_TRUE(e1.test(rr).has_value());
  ASSERT_TRUE(e0.test(sr).has_value());
  EXPECT_TRUE(check_pattern(buf, 2));
  EXPECT_EQ(e0.zero_copy_bytes(), 100u);
  // At the cap exactly, the message stays eager.
  std::vector<u8> small(64);
  Request s2 = e0.isend(1, 1, 1, small);
  EXPECT_EQ(fab.queues_[1].back().hdr.kind, PktKind::kShort);
  e0.wait(s2);
}

TEST(Engine, EagerCapEnvKnobAppliesWhenUnsetInCosts) {
  setenv("SCRNET_RNDV_EAGER_MAX", "128", 1);
  MockFabric fab(2);
  MockDevice d0(fab, 0, 2), d1(fab, 1, 2);
  Engine e0(d0);  // costs.eager_cap == 0 -> env knob applies
  EXPECT_EQ(e0.effective_eager_limit(), 128u);
  LayerCosts costs;
  costs.eager_cap = 256;  // explicit value beats the environment
  Engine e1(d1, costs);
  EXPECT_EQ(e1.effective_eager_limit(), 256u);
  unsetenv("SCRNET_RNDV_EAGER_MAX");
}

TEST(Engine, TimeoutMidRendezvousReleasesPlacementAndReapsLateFin) {
  MockFabric fab(2);
  std::vector<MockRegion> regions;
  PutMockDevice d0(fab, regions, 0, 2), d1(fab, regions, 1, 2);
  LayerCosts tc;
  tc.op_timeout = us(200);
  Engine e0(d0), e1(d1, tc);
  std::vector<u8> big(8192, 1);
  Request sr = e0.isend(1, 1, 0, big);
  std::vector<u8> buf(8192);
  Request rr = e1.irecv(0, 1, 0, buf);
  e1.progress();  // grants the rendezvous: placement reserved, CTS queued
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_TRUE(regions[0].live);
  fab.queues_[0].clear();  // CTS lost in flight: the put never comes
  const MpiStatus st = e1.wait(rr);
  EXPECT_EQ(st.err, StatusCode::kTimedOut);
  EXPECT_EQ(e1.op_timeouts(), 1u);
  // The placement went back to the window *before* the id was parked.
  EXPECT_FALSE(regions[0].live);
  // A late FIN naming the parked id is reaped without touching the dead
  // placement or any recycled request.
  Packet fin;
  fin.hdr.kind = PktKind::kRndvFin;
  fin.hdr.ctx = 1;
  fin.hdr.src = 0;
  fin.hdr.len = 0;
  fin.hdr.aux = rr.idx;
  fab.queues_[1].push_back(fin);
  e1.progress();
  EXPECT_EQ(e1.stale_packets(), 1u);
  EXPECT_EQ(d1.dead_puts_, 0u);
  (void)sr;  // the sender never saw the CTS; its request is abandoned here
}

TEST(Engine, CollDataMatchedInFifoOrderPerRoot) {
  Pair p;
  const u32 dst[] = {1};
  std::vector<u8> m1{1}, m2{2}, m3{3};
  p.e0.coll_mcast(dst, 4, PktKind::kCollData, 1, m1);
  p.e0.coll_mcast(dst, 4, PktKind::kCollData, 1, m2);
  p.e0.coll_mcast(dst, 4, PktKind::kCollData, 2, m3);
  EXPECT_EQ(p.e1.coll_wait_data(4, 0, 1)->at(0), 1);
  EXPECT_EQ(p.e1.coll_wait_data(4, 0, 1)->at(0), 2);
  EXPECT_EQ(p.e1.coll_wait_data(4, 0, 2)->at(0), 3);
  EXPECT_EQ(p.e1.stale_packets(), 0u);
}

TEST(Engine, CollDataOfAnEarlierBcastIsDroppedAsStale) {
  // Bcast 1's chunks arrive only once the receiver waits for bcast 2 (its
  // wait for 1 timed out): they are dropped, and bcast 2 gets its own.
  Pair p;
  const u32 dst[] = {1};
  std::vector<u8> late1{1}, late2{2}, next{3};
  p.e0.coll_mcast(dst, 4, PktKind::kCollData, 1, late1);
  p.e0.coll_mcast(dst, 4, PktKind::kCollData, 1, late2);
  p.e0.coll_mcast(dst, 4, PktKind::kCollData, 2, next);
  EXPECT_EQ(p.e1.coll_wait_data(4, 0, 2)->at(0), 3);
  EXPECT_EQ(p.e1.stale_packets(), 2u);
}

Packet stray_packet(PktKind kind, u32 aux, std::vector<u8> payload = {}) {
  Packet p;
  p.hdr.kind = kind;
  p.hdr.ctx = 1;
  p.hdr.len = static_cast<u32>(payload.size());
  p.hdr.aux = aux;
  p.payload = std::move(payload);
  return p;
}

TEST(Engine, StrayRendezvousPacketsAreCountedAndDropped) {
  // Under fault injection a CTS, DATA or FIN can name a request id that
  // does not exist, or a live request in another state, and a corrupted
  // frame can decode to an unknown kind or to an RTS without its 4-byte
  // length. Each is counted and dropped without touching any request.
  Pair p;
  auto& q1 = p.fab.queues_[1];
  for (PktKind k : {PktKind::kRndvCts, PktKind::kRndvData, PktKind::kRndvFin})
    q1.push_back(stray_packet(k, 7));  // e1 has no request 7
  q1.push_back(stray_packet(static_cast<PktKind>(0xEE), 0));
  q1.push_back(stray_packet(PktKind::kRndvRts, 0, {1, 0}));
  p.e1.progress();
  EXPECT_EQ(p.e1.malformed_packets(), 5u);
  EXPECT_EQ(p.e1.unexpected_depth(), 0u);
  EXPECT_EQ(p.e1.stale_packets(), 0u);

  std::vector<u8> buf(4);
  Request rr = p.e1.irecv(0, 1, 0, buf);  // posted: waits for a short packet
  for (PktKind k : {PktKind::kRndvCts, PktKind::kRndvData, PktKind::kRndvFin})
    q1.push_back(stray_packet(k, rr.idx, {9, 9, 9, 9}));
  p.e1.progress();
  EXPECT_EQ(p.e1.stale_packets(), 3u);
  EXPECT_EQ(p.e1.malformed_packets(), 5u);
  EXPECT_EQ(buf, std::vector<u8>(4, 0));

  // The posted receive is untouched: the real message still completes it.
  std::vector<u8> msg{1, 2, 3, 4};
  p.e0.wait(p.e0.isend(1, 1, 0, msg));
  EXPECT_EQ(p.e1.wait(rr).count_bytes, 4u);
  EXPECT_EQ(buf, msg);
}

TEST(Engine, LateCtsAndDataReapTheirTimedOutRequests) {
  // Both sides of a copy-path rendezvous time out after the CTS is lost:
  // each parks its request id as a zombie. The late CTS and DATA naming
  // those ids are reaped -- counted stale, ids freed for reuse, no DATA
  // shipped for the dead send and the dead receive buffer untouched.
  MockFabric fab(2);
  std::vector<MockRegion> regions;
  PutMockDevice d0(fab, regions, 0, 2), d1(fab, regions, 1, 2);
  d1.reserve_fail_ = true;  // copy path: the receiver waits for DATA
  LayerCosts tc;
  tc.op_timeout = us(100);
  Engine e0(d0, tc), e1(d1, tc);
  std::vector<u8> big(8192, 1);
  Request sr = e0.isend(1, 1, 0, big);
  std::vector<u8> buf(8192, 0);
  Request rr = e1.irecv(0, 1, 0, buf);
  e1.progress();  // RTS -> empty CTS: the receiver now waits for DATA
  ASSERT_EQ(fab.queues_[0].size(), 1u);
  const Packet cts = fab.queues_[0].front();
  fab.queues_[0].clear();
  EXPECT_EQ(e0.wait(sr).err, StatusCode::kTimedOut);
  EXPECT_EQ(e1.wait(rr).err, StatusCode::kTimedOut);

  fab.queues_[0].push_back(cts);
  e0.progress();
  EXPECT_EQ(e0.stale_packets(), 1u);
  EXPECT_TRUE(fab.queues_[1].empty());
  fab.queues_[1].push_back(stray_packet(PktKind::kRndvData, rr.idx, {9, 9, 9, 9}));
  e1.progress();
  EXPECT_EQ(e1.stale_packets(), 1u);
  EXPECT_EQ(buf, std::vector<u8>(8192, 0));

  std::vector<u8> small{5};
  EXPECT_EQ(e0.isend(1, 1, 1, small).idx, sr.idx);
  EXPECT_EQ(e1.irecv(0, 1, 1, small).idx, rr.idx);
}

TEST(Engine, FailedRtsOrCtsSendCompletesTheRequestWithItsError) {
  // A device send that gives up (its bounded wait expired) completes the
  // rendezvous request with that error instead of leaving it waiting; a
  // failed CTS also returns its placement to the window.
  PutPair p;
  std::vector<u8> big(8192, 1);
  p.d0.fail_sends_ = true;
  Request sr = p.e0.isend(1, 1, 0, big);
  EXPECT_TRUE(p.fab.queues_[1].empty());
  EXPECT_EQ(p.e0.wait(sr).err, StatusCode::kTimedOut);

  p.d0.fail_sends_ = false;
  Request sr2 = p.e0.isend(1, 1, 1, big);
  p.e1.progress();  // the RTS lands unexpected
  p.d1.fail_sends_ = true;
  std::vector<u8> buf(8192);
  Request rr = p.e1.irecv(0, 1, 1, buf);
  ASSERT_EQ(p.regions.size(), 1u);
  EXPECT_FALSE(p.regions[0].live);
  EXPECT_TRUE(p.fab.queues_[0].empty());
  EXPECT_EQ(p.e1.wait(rr).err, StatusCode::kTimedOut);
  EXPECT_EQ(p.e1.op_timeouts(), 0u);
  (void)sr2;  // its CTS never comes; the sender is abandoned here
}

}  // namespace
}  // namespace scrnet::scrmpi
