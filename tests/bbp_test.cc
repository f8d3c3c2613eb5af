// Tests for the BillBoard Protocol on the discrete-event SCRAMNet model,
// at nominal timing and under seeded adversarial timing.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "bbp/endpoint.h"
#include "common/bytes.h"
#include "scramnet/ring.h"
#include "scramnet/sim_port.h"
#include "seeded_timing.h"

namespace scrnet::bbp {
namespace {

using scramnet::Ring;
using scramnet::RingConfig;
using scramnet::SimHostPort;

/// Spin up a simulated BBP session: one process per rank, each body getting
/// (process, endpoint).
class SimSession {
 public:
  explicit SimSession(u32 procs, Config cfg = {}, RingConfig rcfg = {}) {
    rcfg.nodes = procs;
    ring_ = std::make_unique<Ring>(sim_, rcfg);
    bodies_.resize(procs);
    cfg_ = cfg;
  }

  void rank(u32 r, std::function<void(sim::Process&, Endpoint&)> body) {
    bodies_[r] = std::move(body);
  }

  void run() {
    for (u32 r = 0; r < bodies_.size(); ++r) {
      if (!bodies_[r]) continue;
      sim_.spawn("rank" + std::to_string(r), [this, r](sim::Process& p) {
        SimHostPort port(*ring_, r, p);
        Endpoint ep(port, static_cast<u32>(bodies_.size()), r, cfg_);
        bodies_[r](p, ep);
      });
    }
    sim_.run();
  }

  sim::Simulation& sim() { return sim_; }

 private:
  sim::Simulation sim_;
  std::unique_ptr<Ring> ring_;
  std::vector<std::function<void(sim::Process&, Endpoint&)>> bodies_;
  Config cfg_;
};

std::vector<u8> make_msg(usize n, u32 seed) {
  std::vector<u8> v(n);
  fill_pattern(v, seed);
  return v;
}

TEST(Bbp, PointToPointDeliversPayload) {
  SimSession s(2);
  const auto msg = make_msg(100, 7);
  s.rank(0, [&](sim::Process&, Endpoint& ep) { ASSERT_TRUE(ep.send(1, msg).ok()); });
  s.rank(1, [&](sim::Process&, Endpoint& ep) {
    std::vector<u8> buf(128);
    auto r = ep.recv(0, buf);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().src, 0u);
    EXPECT_EQ(r.value().len, 100u);
    EXPECT_EQ(r.value().copied, 100u);
    EXPECT_FALSE(r.value().truncated);
    EXPECT_TRUE(check_pattern(std::span<const u8>(buf.data(), 100), 7));
  });
  s.run();
}

TEST(Bbp, ZeroByteMessage) {
  SimSession s(2);
  s.rank(0, [&](sim::Process&, Endpoint& ep) { ASSERT_TRUE(ep.send(1, {}).ok()); });
  s.rank(1, [&](sim::Process&, Endpoint& ep) {
    std::vector<u8> buf(8);
    auto r = ep.recv(0, buf);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().len, 0u);
    EXPECT_EQ(r.value().copied, 0u);
  });
  s.run();
}

TEST(Bbp, FourByteLatencyNearPaperValue) {
  // Paper: 4-byte one-way latency 7.8 us; 0-byte 6.5 us. Allow a band.
  SimSession s(2);
  SimTime sent_at = 0, recvd_at = 0;
  const auto msg = make_msg(4, 3);
  s.rank(0, [&](sim::Process& p, Endpoint& ep) {
    sent_at = p.now();
    ASSERT_TRUE(ep.send(1, msg).ok());
  });
  s.rank(1, [&](sim::Process& p, Endpoint& ep) {
    std::vector<u8> buf(4);
    ASSERT_TRUE(ep.recv(0, buf).ok());
    recvd_at = p.now();
  });
  s.run();
  const double oneway_us = to_us(recvd_at - sent_at);
  EXPECT_GT(oneway_us, 5.0);
  EXPECT_LT(oneway_us, 11.0);
}

TEST(Bbp, InOrderDeliveryFromOneSender) {
  SimSession s(2);
  constexpr int kN = 100;
  s.rank(0, [&](sim::Process&, Endpoint& ep) {
    for (int i = 0; i < kN; ++i) {
      u32 v = static_cast<u32>(i);
      ASSERT_TRUE(ep.send(1, std::span<const u8>(reinterpret_cast<u8*>(&v), 4)).ok());
    }
    ep.drain();
  });
  s.rank(1, [&](sim::Process&, Endpoint& ep) {
    for (int i = 0; i < kN; ++i) {
      u32 v = 0;
      auto r = ep.recv(0, std::span<u8>(reinterpret_cast<u8*>(&v), 4));
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(v, static_cast<u32>(i)) << "out-of-order delivery";
    }
  });
  s.run();
}

TEST(Bbp, McastReachesAllDestinations) {
  SimSession s(4);
  const auto msg = make_msg(64, 11);
  s.rank(0, [&](sim::Process&, Endpoint& ep) {
    const u32 dests[] = {1, 2, 3};
    ASSERT_TRUE(ep.mcast(dests, msg).ok());
    ep.drain();
    EXPECT_EQ(ep.stats().mcasts, 1u);
  });
  for (u32 r = 1; r < 4; ++r) {
    s.rank(r, [&](sim::Process&, Endpoint& ep) {
      std::vector<u8> buf(64);
      auto res = ep.recv(0, buf);
      ASSERT_TRUE(res.ok());
      EXPECT_TRUE(check_pattern(buf, 11));
    });
  }
  s.run();
}

TEST(Bbp, McastSlotFreedOnlyAfterAllAcks) {
  Config cfg;
  cfg.slots = 2;  // tiny: forces reuse pressure
  SimSession s(3, cfg);
  s.rank(0, [&](sim::Process&, Endpoint& ep) {
    const u32 dests[] = {1, 2};
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(ep.mcast(dests, make_msg(32, static_cast<u32>(i))).ok());
    }
    ep.drain();
    EXPECT_EQ(ep.inflight(), 0u);
  });
  for (u32 r = 1; r < 3; ++r) {
    s.rank(r, [&](sim::Process& p, Endpoint& ep) {
      // Rank 2 delays to stagger acks.
      if (ep.rank() == 2) p.delay(us(50));
      std::vector<u8> buf(32);
      for (int i = 0; i < 10; ++i) {
        auto res = ep.recv(0, buf);
        ASSERT_TRUE(res.ok());
        EXPECT_TRUE(check_pattern(buf, static_cast<u32>(i)));
      }
    });
  }
  s.run();
}

TEST(Bbp, RecvAnyPicksUpBothSenders) {
  SimSession s(3);
  s.rank(0, [&](sim::Process&, Endpoint& ep) { ASSERT_TRUE(ep.send(2, make_msg(8, 1)).ok()); });
  s.rank(1, [&](sim::Process& p, Endpoint& ep) {
    p.delay(us(30));
    ASSERT_TRUE(ep.send(2, make_msg(8, 2)).ok());
  });
  s.rank(2, [&](sim::Process&, Endpoint& ep) {
    std::vector<u8> buf(8);
    u32 seen_mask = 0;
    for (int i = 0; i < 2; ++i) {
      auto r = ep.recv_any(buf);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(check_pattern(buf, r.value().src == 0 ? 1u : 2u));
      seen_mask |= 1u << r.value().src;
    }
    EXPECT_EQ(seen_mask, 0b11u);
  });
  s.run();
}

TEST(Bbp, MsgAvailAndPeek) {
  SimSession s(2);
  s.rank(0, [&](sim::Process&, Endpoint& ep) { ASSERT_TRUE(ep.send(1, make_msg(24, 5)).ok()); });
  s.rank(1, [&](sim::Process& p, Endpoint& ep) {
    EXPECT_FALSE(ep.msg_avail_from(0));  // nothing yet at t=0... (almost surely)
    p.delay(us(50));                     // let the message propagate
    EXPECT_TRUE(ep.msg_avail_from(0));
    auto src = ep.msg_avail();
    ASSERT_TRUE(src.has_value());
    EXPECT_EQ(*src, 0u);
    auto len = ep.peek_len(0);
    ASSERT_TRUE(len.has_value());
    EXPECT_EQ(*len, 24u);
    std::vector<u8> buf(24);
    ASSERT_TRUE(ep.recv(0, buf).ok());
    EXPECT_FALSE(ep.msg_avail().has_value());
  });
  s.run();
}

TEST(Bbp, TruncatedReceiveReportsFullLength) {
  SimSession s(2);
  s.rank(0, [&](sim::Process&, Endpoint& ep) { ASSERT_TRUE(ep.send(1, make_msg(100, 9)).ok()); });
  s.rank(1, [&](sim::Process&, Endpoint& ep) {
    std::vector<u8> buf(10);
    auto r = ep.recv(0, buf);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().truncated);
    EXPECT_EQ(r.value().len, 100u);
    EXPECT_EQ(r.value().copied, 10u);
    EXPECT_TRUE(check_pattern(std::span<const u8>(buf.data(), 10), 9));
  });
  s.run();
}

TEST(Bbp, TrySendReportsNoSpaceWhenReceiverStalls) {
  Config cfg;
  cfg.slots = 4;
  SimSession s(2, cfg);
  s.rank(0, [&](sim::Process&, Endpoint& ep) {
    // Fill all 4 slots; 5th must fail (receiver never acks yet).
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(ep.try_send(1, make_msg(16, 1)).ok());
    auto st = ep.try_send(1, make_msg(16, 1));
    EXPECT_EQ(st.code(), StatusCode::kNoSpace);
    EXPECT_EQ(ep.inflight(), 4u);
  });
  s.rank(1, [&](sim::Process& p, Endpoint& ep) {
    p.delay(us(200));
    std::vector<u8> buf(16);
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(ep.recv(0, buf).ok());
  });
  s.run();
}

TEST(Bbp, BlockingSendUnblocksAfterGc) {
  Config cfg;
  cfg.slots = 2;
  SimSession s(2, cfg);
  int sent = 0;
  s.rank(0, [&](sim::Process&, Endpoint& ep) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(ep.send(1, make_msg(16, static_cast<u32>(i))).ok());
      ++sent;
    }
    ep.drain();
    EXPECT_GT(ep.stats().gc_runs, 0u);
    EXPECT_GT(ep.stats().send_stalls, 0u);
  });
  s.rank(1, [&](sim::Process& p, Endpoint& ep) {
    std::vector<u8> buf(16);
    for (int i = 0; i < 8; ++i) {
      p.delay(us(20));  // slow consumer forces sender stalls
      ASSERT_TRUE(ep.recv(0, buf).ok());
      EXPECT_TRUE(check_pattern(buf, static_cast<u32>(i)));
    }
  });
  s.run();
  EXPECT_EQ(sent, 8);
}

TEST(Bbp, DataPartitionExhaustionTriggersGc) {
  Config cfg;
  cfg.slots = 32;
  RingConfig rcfg;
  rcfg.bank_words = 2048;  // tiny banks: ~1KB data partition per process
  SimSession s(2, cfg, rcfg);
  s.rank(0, [&](sim::Process&, Endpoint& ep) {
    const u32 cap = ep.layout().max_message_bytes();
    ASSERT_GE(cap, 512u);
    // Messages of ~1/3 capacity: the 4th send must wait for GC.
    for (int i = 0; i < 6; ++i)
      ASSERT_TRUE(ep.send(1, make_msg(cap / 3, static_cast<u32>(i))).ok());
    ep.drain();
  });
  s.rank(1, [&](sim::Process& p, Endpoint& ep) {
    std::vector<u8> buf(4096);
    for (int i = 0; i < 6; ++i) {
      p.delay(us(30));
      auto r = ep.recv(0, buf);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(check_pattern(std::span<const u8>(buf.data(), r.value().len),
                                static_cast<u32>(i)));
    }
  });
  s.run();
}

TEST(Bbp, SelfSendWorks) {
  SimSession s(2);
  s.rank(0, [&](sim::Process&, Endpoint& ep) {
    ASSERT_TRUE(ep.send(0, make_msg(12, 4)).ok());
    std::vector<u8> buf(12);
    auto r = ep.recv(0, buf);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(check_pattern(buf, 4));
  });
  s.run();
}

TEST(Bbp, OversizeMessageRejected) {
  SimSession s(2);
  s.rank(0, [&](sim::Process&, Endpoint& ep) {
    std::vector<u8> huge(ep.layout().max_message_bytes() + 4);
    EXPECT_EQ(ep.send(1, huge).code(), StatusCode::kInvalidArg);
  });
  s.run();
}

TEST(Bbp, BadRanksRejected) {
  SimSession s(2);
  s.rank(0, [&](sim::Process&, Endpoint& ep) {
    EXPECT_EQ(ep.send(9, make_msg(4, 1)).code(), StatusCode::kInvalidArg);
    const u32 dests[] = {0u, 7u};
    EXPECT_EQ(ep.mcast(dests, make_msg(4, 1)).code(), StatusCode::kInvalidArg);
  });
  s.run();
}

// Regression: with procs == 32 the destination-mask range check used to
// compute dest_mask >> 32 -- undefined behavior that on x86 keeps the mask
// unchanged, so EVERY send at the layout's maximum process count failed
// with InvalidArg.
TEST(Bbp, ThirtyTwoProcsCanSendAndMcast) {
  constexpr u32 kProcs = 32;
  SimSession s(kProcs, {}, RingConfig{.bank_words = 1u << 15});
  s.rank(0, [&](sim::Process&, Endpoint& ep) {
    std::vector<u32> all(kProcs - 1);
    for (u32 r = 1; r < kProcs; ++r) all[r - 1] = r;
    ASSERT_TRUE(ep.mcast(all, make_msg(16, 5)).ok());
    std::vector<u8> buf(16);
    auto r = ep.recv(kProcs - 1, buf);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(check_pattern(buf, 6));
    ep.drain();
  });
  for (u32 r = 1; r < kProcs; ++r) {
    s.rank(r, [&, r](sim::Process&, Endpoint& ep) {
      std::vector<u8> buf(16);
      ASSERT_TRUE(ep.recv(0, buf).ok());
      EXPECT_TRUE(check_pattern(buf, 5));
      if (r == kProcs - 1) {
        ASSERT_TRUE(ep.send(0, make_msg(16, 6)).ok());
      }
      ep.drain();
    });
  }
  s.sim().set_time_limit(ms(50));  // fail (not hang) if a send is rejected
  s.run();
}

// Regression: a zero-length message left live at the front of the queue
// used to alias tail_ onto head_ (with data_empty_ == false), which reads
// as a FULL data partition -- later sends reported NoSpace with the
// billboard actually empty.
TEST(Bbp, ZeroLengthLiveSlotDoesNotCorruptAllocator) {
  SimSession s(2, {}, RingConfig{.bank_words = 1u << 14});
  s.rank(0, [&](sim::Process& p, Endpoint& ep) {
    const u32 max_bytes = ep.layout().max_message_bytes();
    ASSERT_TRUE(ep.send(1, make_msg(64, 1)).ok());  // payload-bearing
    ASSERT_TRUE(ep.send(1, {}).ok());               // zero-length
    // Wait until the first send is acked (receiver consumes it promptly)
    // while the zero-length one is still live.
    p.delay(us(200));
    // The data partition holds no payload now; a maximum-size message must
    // fit. Pre-fix this returned NoSpace.
    ASSERT_TRUE(ep.try_send(1, make_msg(max_bytes, 2)).ok());
    ep.drain();
  });
  s.rank(1, [&](sim::Process& p, Endpoint& ep) {
    const u32 max_bytes = ep.layout().max_message_bytes();
    std::vector<u8> buf(max_bytes);
    auto a = ep.recv(0, buf);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.value().len, 64u);
    p.delay(us(400));  // hold the zero-length message in flight meanwhile
    auto b = ep.recv(0, buf);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b.value().len, 0u);
    auto c = ep.recv(0, buf);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(c.value().len, max_bytes);
    EXPECT_TRUE(check_pattern(buf, 2));
  });
  s.sim().set_time_limit(ms(50));  // fail (not hang) if the big send is lost
  s.run();
}

TEST(Bbp, EndpointRejectsARankOutsideItsSession) {
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 4096});
  sim.spawn("rank1", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    EXPECT_THROW({ Endpoint ep(port, 2, 2); }, std::invalid_argument);  // rank >= procs
  });
  sim.run();
}

TEST(Bbp, LayoutRejectsABankTooSmallForItsControlPartition) {
  // 4 procs x 32 slots need 104 control words per 256-word region, which
  // leaves fewer than the 16 data words a region must keep.
  EXPECT_THROW(Layout(256, 4, 32), std::invalid_argument);
  EXPECT_NO_THROW(Layout(1024, 4, 32));
}

TEST(Bbp, RendezvousWindowIsFirstFitAndRejectsWhatDoesNotFit) {
  // A 1 KiB window: three 256 B extents, then a release in the middle;
  // the next 256 B reservation takes the hole, the one after is refused
  // once only 256 B are left at the end and 512 B are asked for.
  Config cfg;
  cfg.rndv_window_bytes = 1024;
  SimSession s(2, cfg, RingConfig{.bank_words = 8192});
  s.rank(0, [](sim::Process&, Endpoint& ep) {
    std::vector<u32> at;
    for (int i = 0; i < 3; ++i) {
      const Result<u32> r = ep.rndv_reserve(256);
      ASSERT_TRUE(r.ok());
      at.push_back(r.value());
    }
    EXPECT_EQ(at[1], at[0] + 64);
    ep.rndv_release(at[1], 256);
    const Result<u32> hole = ep.rndv_reserve(256);
    ASSERT_TRUE(hole.ok());
    EXPECT_EQ(hole.value(), at[1]);
    EXPECT_EQ(ep.rndv_reserve(512).status().code(), StatusCode::kNoSpace);
    EXPECT_EQ(ep.rndv_reserve(2048).status().code(), StatusCode::kNoSpace);
    EXPECT_EQ(ep.rndv_reserved_bytes(), 768u);
    EXPECT_EQ(ep.stats().rndv_reserves, 4u);
    EXPECT_EQ(ep.stats().rndv_rejects, 2u);
  });
  s.run();
}

TEST(Bbp, EndpointWithoutAWindowRefusesEveryReservation) {
  SimSession s(2);
  s.rank(0, [](sim::Process&, Endpoint& ep) {
    EXPECT_EQ(ep.rndv_reserve(4).status().code(), StatusCode::kNoSpace);
  });
  s.run();
}

TEST(Bbp, RendezvousPutAboveTheDmaThresholdGoesOutByDma) {
  // Rank 1 reserves an extent in its window; rank 0 puts 4 KiB there
  // through the DMA engine, then sends a plain message as the FIN. The
  // ring's per-sender order lands the payload before the FIN.
  Config cfg;
  cfg.rndv_window_bytes = 8192;
  cfg.dma_threshold_bytes = 1024;
  SimSession s(2, cfg);
  u32 at = 0;
  s.rank(1, [&](sim::Process& p, Endpoint& ep) {
    const Result<u32> r = ep.rndv_reserve(4096);
    ASSERT_TRUE(r.ok());
    at = r.value();
    std::vector<u8> fin(4);
    ASSERT_TRUE(ep.recv(0, fin).ok());
    std::vector<u8> buf(4096);
    ASSERT_TRUE(ep.rndv_read(at, buf, 4096).ok());
    EXPECT_TRUE(check_pattern(buf, 11));
    (void)p;
  });
  s.rank(0, [&](sim::Process& p, Endpoint& ep) {
    p.delay(us(5));  // after rank 1 reserved
    ep.rndv_put(at, make_msg(4096, 11));
    EXPECT_EQ(ep.stats().dma_sends, 1u);
    EXPECT_EQ(ep.stats().rndv_put_bytes, 4096u);
    ASSERT_TRUE(ep.send(1, std::vector<u8>(4)).ok());
  });
  s.run();
}

// ---------------------------------------------------------------------------
// Seeded adversarial timing (seeded_timing.h): the protocol must hold under
// every propagation timing, not just the nominal one.
// ---------------------------------------------------------------------------

/// Ranks 0 and 1 ping-pong 30 64-byte messages under seed `seed`'s timing;
/// `nominal_hop` puts the ring back at its nominal hop latency, so only the
/// packet mode, start offsets and pauses vary.
bool pingpong(u64 seed, bool nominal_hop) {
  constexpr u32 kIters = 30;
  seeded::Timing t(seed, 2, RingConfig{.nodes = 2, .bank_words = 4096});
  if (nominal_hop) t.ring.hop_latency = RingConfig{}.hop_latency;
  sim::Simulation sim;
  Ring ring(sim, t.ring);
  for (u32 me = 0; me < 2; ++me) {
    sim.spawn("rank" + std::to_string(me), [&, me](sim::Process& p) {
      SimHostPort port(ring, me, p);
      Endpoint ep(port, 2, me);
      t.enter(p, me);
      const u32 peer = 1 - me;
      std::vector<u8> buf(64);
      for (u32 i = 0; i < kIters; ++i) {
        // Rank 0 sends pattern i and gets i ^ 0xFF back.
        if (me == 0) {
          ASSERT_TRUE(ep.send(peer, make_msg(64, i)).ok());
        }
        ASSERT_TRUE(ep.recv(peer, buf).ok());
        ASSERT_TRUE(check_pattern(buf, me == 0 ? i ^ 0xFFu : i));
        if (me == 1) {
          ASSERT_TRUE(ep.send(peer, make_msg(64, i ^ 0xFFu)).ok());
        }
        p.delay(static_cast<SimTime>(t.rng[me].below(us(3))));
      }
      ASSERT_TRUE(ep.drain().ok());
    });
  }
  sim.run();
  return true;
}

TEST(Bbp, PingPongUnderSeededTiming) {
  EXPECT_EQ(seeded::first_failing_seed(256, [](u64 s) { return pingpong(s, false); }),
            std::nullopt);
}

TEST(Bbp, PingPongUnderSeededSkewAtNominalHop) {
  // A nominal hop is shorter than one PIO read: nearly instant
  // propagation, where only the order of the two ranks' accesses varies.
  EXPECT_EQ(seeded::first_failing_seed(256, [](u64 s) { return pingpong(s, true); }),
            std::nullopt);
}

}  // namespace
}  // namespace scrnet::bbp
