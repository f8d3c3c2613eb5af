// Tests for the RDMA NIC model (netmodels/rdma.h) and the ch_rdma channel:
// registration/put/CQE mechanics at the fabric level, then the full MPI
// stack over run_rdma_mpi -- eager two-sided frames, zero-copy rendezvous
// puts, and fault-injected chunk loss surfacing as a bounded-wait timeout.
#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.h"
#include "fault/plan.h"
#include "harness/cluster.h"
#include "netmodels/rdma.h"
#include "scrmpi/ch_rdma.h"

namespace scrnet {
namespace {

using harness::FabricOptions;
using harness::run_rdma_mpi;
using netmodels::RdmaConfig;
using netmodels::RdmaFabric;
using scrmpi::Comm;
using scrmpi::Datatype;
using scrmpi::Mpi;
using scrmpi::MpiStatus;

TEST(RdmaFabric, PutLandsBytesAndRaisesCqe) {
  sim::Simulation sim;
  RdmaFabric fab(sim, 2);
  std::vector<u8> dst(8192, 0);
  const u32 rkey = fab.register_region(1, dst);
  EXPECT_EQ(fab.registrations(), 1u);
  std::vector<u8> src(8192);
  fill_pattern(src, 4);
  sim.post_at(0, [&] { fab.rdma_put(0, rkey, 0, src, 42); });
  sim.run();
  EXPECT_TRUE(check_pattern(dst, 4));  // DMA'd straight into the region
  EXPECT_EQ(fab.puts(), 1u);
  EXPECT_EQ(fab.put_bytes(), 8192u);
  const auto ev = fab.cq(0).try_pop();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->wr_id, 42u);
  EXPECT_EQ(ev->rkey, rkey);
  EXPECT_EQ(ev->bytes, 8192u);
}

TEST(RdmaFabric, PutIntoOffsetHitsTheRightBytes) {
  sim::Simulation sim;
  RdmaFabric fab(sim, 2);
  std::vector<u8> dst(4096, 0);
  const u32 rkey = fab.register_region(1, dst);
  std::vector<u8> src(256);
  fill_pattern(src, 9);
  sim.post_at(0, [&] { fab.rdma_put(0, rkey, 1024, src, 1); });
  sim.run();
  EXPECT_EQ(dst[1023], 0);  // bytes before the offset untouched
  EXPECT_TRUE(check_pattern(std::span<u8>(dst.data() + 1024, 256), 9));
  EXPECT_EQ(dst[1024 + 256], 0);  // and after
}

TEST(RdmaFabric, DeregisteredRkeySwallowsPutWithoutCqe) {
  // The race receiver-side teardown depends on: a put arriving after the
  // region died must land nowhere, count as an rkey miss, and never raise
  // the initiator's CQE (so its bounded wait times out instead).
  sim::Simulation sim;
  RdmaFabric fab(sim, 2);
  std::vector<u8> dst(1024, 0);
  const u32 rkey = fab.register_region(1, dst);
  fab.deregister(rkey);
  std::vector<u8> src(1024, 0xEE);
  sim.post_at(0, [&] { fab.rdma_put(0, rkey, 0, src, 7); });
  sim.run();
  EXPECT_EQ(dst[0], 0);  // nothing landed in freed memory
  EXPECT_EQ(fab.rkey_misses(), 1u);
  EXPECT_FALSE(fab.cq(0).try_pop().has_value());
}

TEST(RdmaFabric, MultiChunkPutRaisesOneCqeAfterLastChunk) {
  sim::Simulation sim;
  RdmaConfig cfg;
  cfg.mtu = 1024;
  RdmaFabric fab(sim, 2, cfg);
  std::vector<u8> dst(10 * 1024, 0);
  const u32 rkey = fab.register_region(1, dst);
  std::vector<u8> src(10 * 1024);
  fill_pattern(src, 6);
  sim.post_at(0, [&] { fab.rdma_put(0, rkey, 0, src, 5); });
  sim.run();
  EXPECT_TRUE(check_pattern(dst, 6));
  ASSERT_TRUE(fab.cq(0).try_pop().has_value());
  EXPECT_FALSE(fab.cq(0).try_pop().has_value());  // exactly one CQE
}

TEST(RdmaFabric, ZeroBytePutStillRaisesItsCqe) {
  sim::Simulation sim;
  RdmaFabric fab(sim, 2);
  std::vector<u8> dst(64, 0);
  const u32 rkey = fab.register_region(1, dst);
  sim.post_at(0, [&] { fab.rdma_put(0, rkey, 0, {}, 3); });
  sim.run();
  const auto ev = fab.cq(0).try_pop();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->wr_id, 3u);
  EXPECT_EQ(ev->bytes, 0u);
}

TEST(RdmaFabric, CongestionDelaysPutChunksLikeFrames) {
  auto cqe_at = [](bool congested) {
    sim::Simulation sim;
    RdmaFabric fab(sim, 2);
    fault::FaultPlan plan;
    plan.fabric_congestion(0, ms(1), us(7));
    if (congested) {
      EXPECT_TRUE(plan.arm(sim, nullptr, &fab).ok());
    }
    std::vector<u8> dst(256, 0), src(256, 1);
    const u32 rkey = fab.register_region(1, dst);
    sim.post_at(0, [&] { fab.rdma_put(0, rkey, 0, src, 1); });
    sim.run();
    EXPECT_TRUE(fab.cq(0).try_pop().has_value());
    return sim.now();
  };
  EXPECT_EQ(cqe_at(true) - cqe_at(false), us(7));
}

TEST(RdmaChannel, CqeOfATimedOutPutIsNotTakenForTheNextPut) {
  // Congestion holds the first put's only chunk just past the retry
  // timeout: that rndv_put gives up without a FIN. Its late CQE reaches
  // the CQ before the second put's own, and the second put must skip it
  // (wrong work request), wait for its own and only then send its FIN.
  sim::Simulation sim;
  RdmaFabric fab(sim, 2);
  fault::FaultPlan plan;
  plan.fabric_congestion(0, us(5), RdmaConfig::retry_timeout + ns(200));
  ASSERT_TRUE(plan.arm(sim, nullptr, &fab).ok());
  std::vector<u8> dst(64, 0), src(64, 5);
  const u32 rkey = fab.register_region(1, dst);
  Status first, second;
  sim.spawn("sender", [&](sim::Process& p) {
    scrmpi::RdmaChannel ch(fab, p, 0, 2);
    scrmpi::RndvPlacement pl;
    pl.rkey = rkey;
    pl.bytes = 64;
    scrmpi::PktHeader fin;
    fin.kind = scrmpi::PktKind::kRndvFin;
    first = ch.put()->rndv_put(1, pl, src, fin);
    second = ch.put()->rndv_put(1, pl, src, fin);
  });
  sim.run();
  EXPECT_EQ(first.code(), StatusCode::kTimedOut);
  EXPECT_TRUE(second.ok());
  EXPECT_FALSE(fab.cq(0).try_pop().has_value());  // both CQEs consumed
  ASSERT_TRUE(fab.rx(1).try_pop().has_value());    // one FIN, the second put's
  EXPECT_FALSE(fab.rx(1).try_pop().has_value());
}

TEST(RdmaMpi, EagerAndZeroCopyPingPong) {
  constexpr u32 kSmall = 256;        // well under the frame MTU: eager
  constexpr u32 kLarge = 64 * 1024;  // rendezvous, NIC-put zero copy
  u64 puts = 0, zbytes = 0, fins = 0, regs = 0;
  bool small_ok = false, large_ok = false;
  run_rdma_mpi(2, [&](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    if (mpi.rank(w) == 0) {
      std::vector<u8> small(kSmall), large(kLarge);
      fill_pattern(small, 1);
      fill_pattern(large, 2);
      mpi.send(small.data(), kSmall, Datatype::kByte, 1, 0, w);
      mpi.send(large.data(), kLarge, Datatype::kByte, 1, 0, w);
      puts = mpi.engine().rndv_puts();
      zbytes = mpi.engine().zero_copy_bytes();
    } else {
      std::vector<u8> small(kSmall), large(kLarge);
      mpi.recv(small.data(), kSmall, Datatype::kByte, 0, 0, w);
      mpi.recv(large.data(), kLarge, Datatype::kByte, 0, 0, w);
      small_ok = check_pattern(small, 1);
      large_ok = check_pattern(large, 2);
      fins = mpi.engine().rndv_fins();
      // The posted buffer itself was pinned for the put.
      auto& dev = static_cast<scrmpi::RdmaChannel&>(mpi.engine().device());
      regs = dev.fabric().registrations();
    }
  });
  EXPECT_TRUE(small_ok);
  EXPECT_TRUE(large_ok);
  EXPECT_EQ(puts, 1u);
  EXPECT_EQ(zbytes, u64{kLarge});
  EXPECT_EQ(fins, 1u);
  EXPECT_EQ(regs, 1u);
}

TEST(RdmaMpi, PartitionedPutExhaustsRetriesAndTimesOut) {
  // Sever the sender->receiver direction after the RTS has crossed but
  // before the put: the CTS still arrives (reverse direction), the put
  // chunks all drop, the sender's CQE never fires and its bounded wait
  // (RdmaConfig::retry_timeout, modeling RC retry exhaustion) surfaces
  // kTimedOut; the receiver's FIN wait expires on op_timeout and tears the
  // registration down.
  FabricOptions opts;
  opts.mpi.op_timeout = ms(10);
  fault::FaultPlan plan;
  plan.partition(us(50), 0, 1);
  opts.faults = &plan;
  constexpr u32 kN = 32 * 1024;
  StatusCode send_err = StatusCode::kOk, recv_err = StatusCode::kOk;
  u64 puts = 0, sender_spin_timeouts = 0, recv_timeouts = 0, drops = 0;
  run_rdma_mpi(
      2,
      [&](sim::Process& p, Mpi& mpi) {
        const Comm& w = mpi.world();
        std::vector<u8> buf(kN, 0xCD);
        if (mpi.rank(w) == 0) {
          const MpiStatus st =
              mpi.send(buf.data(), kN, Datatype::kByte, 1, 0, w);
          send_err = st.err;
          puts = mpi.engine().rndv_puts();
          sender_spin_timeouts = mpi.engine().op_timeouts();
        } else {
          p.delay(us(100));  // grant after the partition is up
          const MpiStatus st =
              mpi.recv(buf.data(), kN, Datatype::kByte, 0, 0, w);
          recv_err = st.err;
          recv_timeouts = mpi.engine().op_timeouts();
          auto& dev =
              static_cast<scrmpi::RdmaChannel&>(mpi.engine().device());
          drops = dev.fabric().frames_dropped();
        }
      },
      opts);
  EXPECT_EQ(send_err, StatusCode::kTimedOut);
  EXPECT_EQ(recv_err, StatusCode::kTimedOut);
  EXPECT_EQ(puts, 1u);  // the put was issued; its chunks died on the wire
  // The sender's error came from the device's bounded CQE wait, not from
  // the engine's op_timeout spin.
  EXPECT_EQ(sender_spin_timeouts, 0u);
  EXPECT_EQ(recv_timeouts, 1u);
  EXPECT_GT(drops, 0u);
}

TEST(RdmaMpi, ZeroLengthReceiveOfAnOverMtuMessageFailsTheSend) {
  // A zero-length receive reserves no placement, so its CTS grants the
  // copy path: the sender would ship the whole message as one DATA frame,
  // above the frame MTU. ch_rdma refuses that frame with kInvalidArg; the
  // receiver, whose DATA never comes, times out on op_timeout.
  FabricOptions opts;
  opts.mpi.op_timeout = ms(1);
  constexpr u32 kN = 8 * 1024;
  StatusCode send_err = StatusCode::kOk, recv_err = StatusCode::kOk;
  u64 puts = 0, recv_timeouts = 0;
  run_rdma_mpi(
      2,
      [&](sim::Process&, Mpi& mpi) {
        const Comm& w = mpi.world();
        std::vector<u8> buf(kN, 0xAB);
        if (mpi.rank(w) == 0) {
          send_err = mpi.send(buf.data(), kN, Datatype::kByte, 1, 0, w).err;
          puts = mpi.engine().rndv_puts();
        } else {
          recv_err = mpi.recv(buf.data(), 0, Datatype::kByte, 0, 0, w).err;
          recv_timeouts = mpi.engine().op_timeouts();
        }
      },
      opts);
  EXPECT_EQ(send_err, StatusCode::kInvalidArg);
  EXPECT_EQ(recv_err, StatusCode::kTimedOut);
  EXPECT_EQ(puts, 0u);
  EXPECT_EQ(recv_timeouts, 1u);
}

TEST(RdmaMpi, CollectivesSurviveForcedRendezvous) {
  FabricOptions opts;
  opts.mpi.eager_cap = 64;  // push every 512-byte hop through rendezvous
  bool sums_ok = true;
  run_rdma_mpi(
      4,
      [&](sim::Process&, Mpi& mpi) {
        const Comm& w = mpi.world();
        const u32 me = static_cast<u32>(mpi.rank(w));
        std::vector<double> v(64, static_cast<double>(me + 1)), out(64);
        mpi.allreduce(v.data(), out.data(), 64, Datatype::kDouble,
                      scrmpi::ReduceOp::kSum, w);
        for (double d : out)
          if (d != 10.0) sums_ok = false;
        mpi.barrier(w);
      },
      opts);
  EXPECT_TRUE(sums_ok);
}

}  // namespace
}  // namespace scrnet
