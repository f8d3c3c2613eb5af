// Rendezvous-protocol regression tests at the harness level (docs/adi.md):
//   * the exact eager/rendezvous switch point on the real channel devices
//     -- ch_bbp, ch_sock, ch_hybrid;
//   * the zero-copy billboard window end to end (reserve -> put -> FIN ->
//     release/reuse) under a forced-low eager cap;
//   * fault-path teardown: a ring link severed mid-rendezvous leaves both
//     ranks with kTimedOut and no stuck fiber or leaked placement.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/bytes.h"
#include "fault/plan.h"
#include "harness/cluster.h"
#include "scrmpi/ch_bbp.h"

namespace scrnet::scrmpi {
namespace {

using harness::run_hybrid_mpi;
using harness::run_scramnet_mpi;
using harness::run_tcp_mpi;
using harness::ScramnetOptions;
using harness::TcpFabricKind;

/// Bytes still reserved in this rank's billboard rendezvous window.
u32 rndv_reserved_bytes(Mpi& mpi) {
  return static_cast<BbpChannel&>(mpi.engine().device())
      .endpoint()
      .rndv_reserved_bytes();
}

/// Ping rank0 -> rank1 at 1 byte, eager_limit() - 1, eager_limit() and
/// eager_limit() + 1 (queried from the live device, so the sweep tracks
/// each device's real switch point). Rank 0 records the per-send
/// rndv_rts() delta -- 1 iff the rendezvous path was chosen -- and rank 1
/// verifies count and payload at every size.
struct BoundarySweep {
  std::vector<u32> sizes;       // filled on rank 0 during the run
  std::vector<u32> rts_deltas;  // per-send rendezvous use (rank 0)
  u32 eager_limit = 0;
  bool payloads_ok = true;

  std::function<void(sim::Process&, Mpi&)> body() {
    return [this](sim::Process&, Mpi& mpi) {
      Engine& eng = mpi.engine();
      const Comm& w = mpi.world();
      const u32 el = eng.effective_eager_limit();
      const u32 szs[] = {1, el - 1, el, el + 1};
      if (mpi.rank(w) == 0) {
        eager_limit = el;
        u64 last = 0;
        for (u32 i = 0; i < 4; ++i) {
          std::vector<u8> msg(szs[i]);
          fill_pattern(msg, i + 1);
          mpi.send(msg.data(), szs[i], Datatype::kByte, 1,
                   static_cast<i32>(i), w);
          sizes.push_back(szs[i]);
          rts_deltas.push_back(static_cast<u32>(eng.rndv_rts() - last));
          last = eng.rndv_rts();
        }
      } else {
        for (u32 i = 0; i < 4; ++i) {
          std::vector<u8> buf(szs[i]);
          const MpiStatus st = mpi.recv(buf.data(), szs[i], Datatype::kByte,
                                        0, static_cast<i32>(i), w);
          if (st.count_bytes != szs[i] || !check_pattern(buf, i + 1))
            payloads_ok = false;
        }
      }
    };
  }

  void check() const {
    ASSERT_EQ(sizes.size(), 4u);
    EXPECT_TRUE(payloads_ok);
    for (u32 i = 0; i < 4; ++i) {
      const u32 expect = sizes[i] > eager_limit ? 1u : 0u;
      EXPECT_EQ(rts_deltas[i], expect)
          << sizes[i] << " bytes (eager limit " << eager_limit << ")";
    }
  }
};

TEST(RndvBoundary, BbpSwitchesExactlyAtEagerLimit) {
  BoundarySweep sweep;
  ScramnetOptions opts;
  opts.ring.bank_words = 1u << 16;  // keep the boundary messages modest
  run_scramnet_mpi(2, sweep.body(), opts);
  sweep.check();
}

TEST(RndvBoundary, SockSwitchesExactlyAtEagerLimit) {
  BoundarySweep sweep;
  run_tcp_mpi(2, TcpFabricKind::kMyrinet, sweep.body());
  sweep.check();
}

TEST(RndvBoundary, HybridSwitchesExactlyAtEagerLimit) {
  BoundarySweep sweep;
  ScramnetOptions sopts;
  sopts.ring.bank_words = 1u << 16;
  run_hybrid_mpi(2, TcpFabricKind::kMyrinet, /*threshold=*/2048,
                 sweep.body(), sopts);
  sweep.check();
}

TEST(Rendezvous, BbpZeroCopyWindowEndToEnd) {
  // A billboard rendezvous window plus a low eager cap: 16 KB messages go
  // RTS -> CTS(placement) -> ring put -> FIN, with the payload never
  // riding a channel packet. Six back-to-back messages through a 64 KB
  // window (96 KB in total) only fit if extents are released and reused,
  // and the receiver must end with nothing reserved.
  ScramnetOptions opts;
  opts.ring.bank_words = 1u << 18;
  opts.bbp.rndv_window_bytes = 64 * 1024;
  opts.mpi.eager_cap = 4096;
  constexpr u32 kN = 16 * 1024;
  constexpr u32 kMsgs = 6;
  u64 puts = 0, zbytes = 0, fins = 0, cts = 0;
  u32 reserved = ~0u;
  bool payloads_ok = true;
  run_scramnet_mpi(
      2,
      [&](sim::Process&, Mpi& mpi) {
        const Comm& w = mpi.world();
        std::vector<u8> buf(kN);
        if (mpi.rank(w) == 0) {
          for (u32 i = 0; i < kMsgs; ++i) {
            fill_pattern(buf, i + 10);
            mpi.send(buf.data(), kN, Datatype::kByte, 1, 0, w);
          }
          puts = mpi.engine().rndv_puts();
          zbytes = mpi.engine().zero_copy_bytes();
        } else {
          for (u32 i = 0; i < kMsgs; ++i) {
            const MpiStatus st =
                mpi.recv(buf.data(), kN, Datatype::kByte, 0, 0, w);
            if (st.count_bytes != kN || !check_pattern(buf, i + 10))
              payloads_ok = false;
          }
          fins = mpi.engine().rndv_fins();
          cts = mpi.engine().rndv_cts();
          reserved = rndv_reserved_bytes(mpi);
        }
      },
      opts);
  EXPECT_TRUE(payloads_ok);
  EXPECT_EQ(puts, u64{kMsgs});
  EXPECT_EQ(zbytes, u64{kMsgs} * kN);
  EXPECT_EQ(fins, u64{kMsgs});
  EXPECT_EQ(cts, u64{kMsgs});
  EXPECT_EQ(reserved, 0u);
}

TEST(Rendezvous, BbpWindowTooSmallFallsBackToCopy) {
  // A window smaller than the message: the reserve fails, the CTS comes
  // back empty and the transfer completes on the legacy copy path.
  ScramnetOptions opts;
  opts.ring.bank_words = 1u << 18;
  opts.bbp.rndv_window_bytes = 4 * 1024;
  opts.mpi.eager_cap = 4096;
  constexpr u32 kN = 16 * 1024;
  u64 puts = 0, rts = 0, fins = 0;
  bool ok = false;
  run_scramnet_mpi(
      2,
      [&](sim::Process&, Mpi& mpi) {
        const Comm& w = mpi.world();
        std::vector<u8> buf(kN);
        if (mpi.rank(w) == 0) {
          fill_pattern(buf, 3);
          mpi.send(buf.data(), kN, Datatype::kByte, 1, 0, w);
          puts = mpi.engine().rndv_puts();
          rts = mpi.engine().rndv_rts();
        } else {
          const MpiStatus st =
              mpi.recv(buf.data(), kN, Datatype::kByte, 0, 0, w);
          ok = st.count_bytes == kN && check_pattern(buf, 3);
          fins = mpi.engine().rndv_fins();
        }
      },
      opts);
  EXPECT_TRUE(ok);
  EXPECT_EQ(rts, 1u);   // rendezvous was attempted...
  EXPECT_EQ(puts, 0u);  // ...but no placement fit, so no put
  EXPECT_EQ(fins, 0u);
}

TEST(Rendezvous, SeveredLinkMidRendezvousTimesOutBothRanks) {
  // Sever the ring after the RTS has crossed but before the receiver
  // grants: the CTS (sent into the dead ring) never reaches the sender, so
  // the sender is stuck in its CTS wait and the receiver mid-rendezvous
  // with a placement outstanding. Both must come back with kTimedOut, the
  // receiver must release the placement, and the run must drain (no stuck
  // fibers) -- the scenario docs/adi.md's teardown rules exist for.
  ScramnetOptions opts;
  opts.ring.bank_words = 1u << 18;
  opts.bbp.rndv_window_bytes = 64 * 1024;
  opts.bbp.poll_timeout = ms(5);
  opts.mpi.eager_cap = 4096;
  opts.mpi.op_timeout = ms(50);
  fault::FaultPlan plan;
  plan.link_down(ms(2), 0).link_down(ms(2), 1);  // both directions dead
  opts.faults = &plan;
  constexpr u32 kN = 16 * 1024;
  StatusCode send_err = StatusCode::kOk, recv_err = StatusCode::kOk;
  u64 rts = 0, cts = 0, send_timeouts = 0, recv_timeouts = 0;
  u32 reserved = ~0u;
  run_scramnet_mpi(
      2,
      [&](sim::Process& p, Mpi& mpi) {
        const Comm& w = mpi.world();
        std::vector<u8> buf(kN, 0xAB);
        if (mpi.rank(w) == 0) {
          const MpiStatus st =
              mpi.send(buf.data(), kN, Datatype::kByte, 1, 0, w);
          send_err = st.err;
          rts = mpi.engine().rndv_rts();
          send_timeouts = mpi.engine().op_timeouts();
        } else {
          // Post the recv only after the link has died: the RTS is already
          // queued locally, so the grant happens -- and the CTS dies on
          // the broken ring.
          p.delay(ms(5));
          const MpiStatus st =
              mpi.recv(buf.data(), kN, Datatype::kByte, 0, 0, w);
          recv_err = st.err;
          cts = mpi.engine().rndv_cts();
          recv_timeouts = mpi.engine().op_timeouts();
          reserved = rndv_reserved_bytes(mpi);
        }
      },
      opts);
  EXPECT_EQ(send_err, StatusCode::kTimedOut);
  EXPECT_EQ(recv_err, StatusCode::kTimedOut);
  EXPECT_EQ(rts, 1u);
  EXPECT_EQ(cts, 1u);  // the receiver did grant a placement before dying
  EXPECT_EQ(send_timeouts, 1u);
  EXPECT_EQ(recv_timeouts, 1u);
  EXPECT_EQ(reserved, 0u);  // the timed-out receiver released its placement
}

TEST(Rendezvous, CollectivesSurviveForcedRendezvous) {
  // CI runs the whole figure suite with SCRNET_RNDV_EAGER_MAX forcing most
  // traffic through rendezvous; this is the in-tree canary that the p2p
  // collective algorithms stay deadlock-free when every payload needs a
  // posted receive before it can move.
  ScramnetOptions opts;
  opts.ring.bank_words = 1u << 18;
  opts.bbp.rndv_window_bytes = 64 * 1024;
  opts.mpi.eager_cap = 256;
  bool sums_ok = true, gathers_ok = true;
  run_scramnet_mpi(
      4,
      [&](sim::Process&, Mpi& mpi) {
        const Comm& w = mpi.world();
        const u32 me = static_cast<u32>(mpi.rank(w));
        // 512-byte payloads: above the cap, every hop is a rendezvous.
        std::vector<double> v(64, static_cast<double>(me + 1)), out(64);
        mpi.set_allreduce_algo(Mpi::AllreduceAlgo::kRecursiveDoubling);
        mpi.allreduce(v.data(), out.data(), 64, Datatype::kDouble,
                      ReduceOp::kSum, w);
        for (double d : out)
          if (d != 10.0) sums_ok = false;
        std::vector<u8> block(512);
        fill_pattern(block, me + 1);
        std::vector<u8> all(512 * 4);
        mpi.gather(block.data(), 512, Datatype::kByte, all.data(), 0, w);
        if (me == 0) {
          for (u32 r = 0; r < 4; ++r) {
            std::span<u8> part(all.data() + r * 512, 512);
            if (!check_pattern(part, r + 1)) gathers_ok = false;
          }
        }
        mpi.barrier(w);
      },
      opts);
  EXPECT_TRUE(sums_ok);
  EXPECT_TRUE(gathers_ok);
}

}  // namespace
}  // namespace scrnet::scrmpi
