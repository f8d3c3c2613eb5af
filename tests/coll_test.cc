// Cross-algorithm equivalence suite for the collective zoo (coll.{h,cc}).
//
// Every algorithm must produce bit-identical results to the analytic
// reference on every rank: bcast delivers the root's bytes, allreduce the
// elementwise reduction (operands are exact small integers so every
// reduction order agrees), allgather the rank-ordered concatenation.
// Covered axes: non-power-of-two communicator sizes, non-zero roots,
// zero-length payloads, multi-segment chain payloads, forced rendezvous,
// and the sock / hybrid / rdma devices. Plus the decision-table unit tests
// and the coll_bytes 32-bit-overflow regression (the bugfix this PR fixes
// in six mpi.cc call sites).
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "harness/cluster.h"
#include "scrmpi/coll.h"
#include "scrmpi/mpi.h"
#include "tune/measure.h"
#include "tune/table.h"

namespace {

using scrnet::u8;
using scrnet::u32;
using scrnet::harness::ScramnetOptions;
using scrnet::harness::TcpFabricKind;
using scrnet::harness::run_hybrid_mpi;
using scrnet::harness::run_rdma_mpi;
using scrnet::harness::run_scramnet_mpi;
using scrnet::harness::run_tcp_mpi;
using scrnet::scrmpi::AllgatherAlgo;
using scrnet::scrmpi::AllreduceAlgo;
using scrnet::scrmpi::CollAlgo;
using scrnet::scrmpi::Datatype;
using scrnet::scrmpi::Mpi;
using scrnet::scrmpi::ReduceOp;
using scrnet::tune::DecisionTable;
using scrnet::tune::kUnlimited;
using scrnet::tune::Rule;

const CollAlgo kBcastAlgos[] = {
    CollAlgo::kPointToPoint, CollAlgo::kNativeMcast,
    CollAlgo::kBinomial,     CollAlgo::kScatterAllgather,
    CollAlgo::kRing,         CollAlgo::kChain,
};
const CollAlgo kBarrierAlgos[] = {
    CollAlgo::kPointToPoint,
    CollAlgo::kNativeMcast,
    CollAlgo::kDissemination,
};
const AllreduceAlgo kAllreduceAlgos[] = {
    AllreduceAlgo::kReduceBcast,
    AllreduceAlgo::kRecursiveDoubling,
    AllreduceAlgo::kRabenseifner,
    AllreduceAlgo::kRing,
};
const AllgatherAlgo kAllgatherAlgos[] = {
    AllgatherAlgo::kGatherBcast,
    AllgatherAlgo::kRing,
};

std::vector<u8> pattern(u32 bytes, u32 seed) {
  std::vector<u8> v(bytes);
  for (u32 i = 0; i < bytes; ++i)
    v[i] = static_cast<u8>((seed * 131 + i * 7 + (i >> 8)) & 0xFF);
  return v;
}

// -- bcast ------------------------------------------------------------------

// One simulation per communicator size: inside it, every algorithm x root x
// payload size combination runs back-to-back (this also exercises the
// one-tag-per-op-family matching discipline across consecutive collectives).
void bcast_matrix(Mpi& mpi, const std::vector<u32>& sizes) {
  const auto& world = mpi.world();
  const u32 me = static_cast<u32>(mpi.rank(world));
  const u32 np = world.size();
  for (CollAlgo algo : kBcastAlgos) {
    mpi.set_bcast_algo(algo);
    for (u32 root : {0u, 2u}) {
      if (root >= np) continue;
      for (u32 bytes : sizes) {
        const std::vector<u8> want = pattern(bytes, root * 1000 + bytes);
        std::vector<u8> buf(bytes, 0xEE);
        if (me == root) buf = want;
        mpi.bcast(buf.data(), bytes, Datatype::kByte,
                  static_cast<scrnet::i32>(root), world);
        EXPECT_EQ(buf, want)
            << "bcast algo=" << coll_algo_name(algo) << " np=" << np
            << " root=" << root << " bytes=" << bytes << " rank=" << me;
      }
    }
  }
}

void run_bcast_equivalence(u32 np) {
  ScramnetOptions opts;
  opts.ring.bank_words = 1u << 18;  // room for the multi-segment payload
  run_scramnet_mpi(
      np,
      [&](scrnet::sim::Process&, Mpi& mpi) {
        // 9001 spans three kChainSegmentBytes segments (pipelined chain),
        // and with np up to 8 gives non-uniform scatter segments.
        bcast_matrix(mpi, {0, 1, 13, 300, 9001});
      },
      opts);
}

TEST(CollBcast, EquivalenceNp3) { run_bcast_equivalence(3); }
TEST(CollBcast, EquivalenceNp4) { run_bcast_equivalence(4); }
TEST(CollBcast, EquivalenceNp5) { run_bcast_equivalence(5); }
TEST(CollBcast, EquivalenceNp8) { run_bcast_equivalence(8); }

// -- barrier ----------------------------------------------------------------

// Barriers complete (no deadlock) back-to-back, and a bcast immediately
// after stays correctly matched (no tag leakage between op families).
void barrier_matrix(Mpi& mpi) {
  const auto& world = mpi.world();
  const u32 me = static_cast<u32>(mpi.rank(world));
  for (CollAlgo algo : kBarrierAlgos) {
    mpi.set_barrier_algo(algo);
    for (int i = 0; i < 3; ++i) mpi.barrier(world);
    mpi.set_bcast_algo(CollAlgo::kBinomial);
    u32 token = (me == 0) ? 0xC0FFEEu : 0;
    mpi.bcast(&token, 1, Datatype::kUint32, 0, world);
    EXPECT_EQ(token, 0xC0FFEEu)
        << "barrier algo=" << coll_algo_name(algo) << " rank=" << me;
  }
}

TEST(CollBarrier, EquivalenceNp3) {
  run_scramnet_mpi(3, [](scrnet::sim::Process&, Mpi& mpi) { barrier_matrix(mpi); });
}
TEST(CollBarrier, EquivalenceNp5) {
  run_scramnet_mpi(5, [](scrnet::sim::Process&, Mpi& mpi) { barrier_matrix(mpi); });
}
TEST(CollBarrier, EquivalenceNp8) {
  run_scramnet_mpi(8, [](scrnet::sim::Process&, Mpi& mpi) { barrier_matrix(mpi); });
}

// -- allreduce --------------------------------------------------------------

void allreduce_matrix(Mpi& mpi, const std::vector<u32>& counts) {
  const auto& world = mpi.world();
  const u32 me = static_cast<u32>(mpi.rank(world));
  const u32 np = world.size();
  for (AllreduceAlgo algo : kAllreduceAlgos) {
    mpi.set_allreduce_algo(algo);
    for (u32 count : counts) {
      // kDouble / kSum with exact small integers: every reduction order
      // produces the same bits, so equality is exact.
      {
        std::vector<double> in(count), out(count, -1.0);
        std::vector<double> want(count);
        for (u32 i = 0; i < count; ++i) {
          in[i] = static_cast<double>((me + 1) * (i % 32));
          want[i] = static_cast<double>(np * (np + 1) / 2 * (i % 32));
        }
        mpi.allreduce(in.data(), out.data(), count, Datatype::kDouble,
                      ReduceOp::kSum, world);
        EXPECT_EQ(out, want)
            << "allreduce algo=" << allreduce_algo_name(algo) << " np=" << np
            << " count=" << count << " dt=double op=sum rank=" << me;
      }
      {
        std::vector<scrnet::i32> in(count), out(count, -1);
        std::vector<scrnet::i32> want(count);
        for (u32 i = 0; i < count; ++i) {
          in[i] = static_cast<scrnet::i32>((me * 7 + i) % 101);
          scrnet::i32 mx = 0;
          for (u32 r = 0; r < np; ++r)
            mx = std::max(mx, static_cast<scrnet::i32>((r * 7 + i) % 101));
          want[i] = mx;
        }
        mpi.allreduce(in.data(), out.data(), count, Datatype::kInt32,
                      ReduceOp::kMax, world);
        EXPECT_EQ(out, want)
            << "allreduce algo=" << allreduce_algo_name(algo) << " np=" << np
            << " count=" << count << " dt=int32 op=max rank=" << me;
      }
    }
  }
}

void run_allreduce_equivalence(u32 np) {
  run_scramnet_mpi(np, [](scrnet::sim::Process&, Mpi& mpi) {
    allreduce_matrix(mpi, {0, 1, 13, 300});
  });
}

TEST(CollAllreduce, EquivalenceNp3) { run_allreduce_equivalence(3); }
TEST(CollAllreduce, EquivalenceNp4) { run_allreduce_equivalence(4); }
TEST(CollAllreduce, EquivalenceNp5) { run_allreduce_equivalence(5); }
TEST(CollAllreduce, EquivalenceNp8) { run_allreduce_equivalence(8); }

// -- allgather --------------------------------------------------------------

void allgather_matrix(Mpi& mpi, const std::vector<u32>& counts) {
  const auto& world = mpi.world();
  const u32 me = static_cast<u32>(mpi.rank(world));
  const u32 np = world.size();
  for (AllgatherAlgo algo : kAllgatherAlgos) {
    mpi.set_allgather_algo(algo);
    for (u32 count : counts) {
      const std::vector<u8> mine = pattern(count, me + 17);
      std::vector<u8> out(static_cast<size_t>(count) * np, 0xEE);
      std::vector<u8> want;
      for (u32 r = 0; r < np; ++r) {
        const std::vector<u8> b = pattern(count, r + 17);
        want.insert(want.end(), b.begin(), b.end());
      }
      mpi.allgather(mine.data(), count, Datatype::kByte, out.data(), world);
      EXPECT_EQ(out, want)
          << "allgather algo=" << allgather_algo_name(algo) << " np=" << np
          << " count=" << count << " rank=" << me;
    }
  }
}

void run_allgather_equivalence(u32 np) {
  run_scramnet_mpi(np, [](scrnet::sim::Process&, Mpi& mpi) {
    allgather_matrix(mpi, {0, 1, 13, 300});
  });
}

TEST(CollAllgather, EquivalenceNp3) { run_allgather_equivalence(3); }
TEST(CollAllgather, EquivalenceNp5) { run_allgather_equivalence(5); }
TEST(CollAllgather, EquivalenceNp8) { run_allgather_equivalence(8); }

// -- forced rendezvous ------------------------------------------------------

// Payloads above eager_cap take the rendezvous path in every point-to-point
// exchange of every algorithm (the same idiom rndv_test uses).
TEST(CollRendezvous, AllAlgorithms) {
  ScramnetOptions opts;
  opts.mpi.eager_cap = 256;
  opts.ring.bank_words = 1u << 18;
  opts.bbp.rndv_window_bytes = 64 * 1024;
  run_scramnet_mpi(
      5,
      [](scrnet::sim::Process&, Mpi& mpi) {
        bcast_matrix(mpi, {2048});
        allreduce_matrix(mpi, {512});  // 4096 bytes of doubles per exchange
        allgather_matrix(mpi, {600});
      },
      opts);
}

// -- other devices ----------------------------------------------------------

void device_matrix(Mpi& mpi) {
  bcast_matrix(mpi, {300});
  allreduce_matrix(mpi, {37});
  allgather_matrix(mpi, {64});
}

TEST(CollDevices, SockFastEthernet) {
  run_tcp_mpi(5, TcpFabricKind::kFastEthernet,
              [](scrnet::sim::Process&, Mpi& mpi) { device_matrix(mpi); });
}

TEST(CollDevices, Rdma) {
  run_rdma_mpi(5, [](scrnet::sim::Process&, Mpi& mpi) { device_matrix(mpi); });
}

TEST(CollDevices, HybridScramnetEthernet) {
  run_hybrid_mpi(4, TcpFabricKind::kFastEthernet, /*threshold=*/1024,
                 [](scrnet::sim::Process&, Mpi& mpi) { device_matrix(mpi); });
}

// Native mcast payloads above the sender's billboard data partition
// (bank/procs -- ~333 KiB at 12 nodes with the default 4 MB bank) used to
// be rejected by Endpoint::post and silently dropped by the
// fire-and-forget collective transport, deadlocking every receiver. The
// native bcast now chunks at ChannelDevice::mcast_cap(); this pins both
// the direct path and the gather_bcast composite that first exposed it.
TEST(CollNativeMcast, ChunksPayloadsBeyondBillboardPartition) {
  run_scramnet_mpi(12, [](scrnet::sim::Process&, Mpi& mpi) {
    const auto& world = mpi.world();
    const u32 me = static_cast<u32>(mpi.rank(world));
    mpi.set_bcast_algo(CollAlgo::kNativeMcast);
    const u32 bytes = 600000;  // > one 12-node billboard partition
    const std::vector<u8> want = pattern(bytes, 99);
    std::vector<u8> buf = (me == 3) ? want : std::vector<u8>(bytes, 0xEE);
    mpi.bcast(buf.data(), bytes, Datatype::kByte, 3, world);
    EXPECT_EQ(buf, want) << "rank=" << me;

    // The composite allgather broadcasts np * block bytes in one shot.
    mpi.set_allgather_algo(AllgatherAlgo::kGatherBcast);
    allgather_matrix(mpi, {32768});
  });
}

// -- stats ------------------------------------------------------------------

TEST(CollStats, AllreduceAllgatherCounters) {
  run_scramnet_mpi(3, [](scrnet::sim::Process&, Mpi& mpi) {
    double x = 1.0, y = 0.0;
    mpi.set_allreduce_algo(AllreduceAlgo::kRing);
    mpi.allreduce(&x, &y, 1, Datatype::kDouble, ReduceOp::kSum, mpi.world());
    u32 mine = 1, all[3];
    mpi.set_allgather_algo(AllgatherAlgo::kRing);
    mpi.allgather(&mine, 1, Datatype::kUint32, all, mpi.world());
    EXPECT_EQ(mpi.stats().allreduces, 1u);
    EXPECT_EQ(mpi.stats().allgathers, 1u);
  });
}

// -- coll_bytes overflow regression -----------------------------------------

// The bug this PR fixes: `count * datatype_size(dt)` was a 32-bit multiply
// in six mpi.cc call sites, so count >= 2^29 with 8-byte datatypes silently
// wrapped (e.g. 2^29 doubles -> 0 bytes). Now every collective routes
// through coll_bytes() and rejects the overflow up front.
TEST(CollBytes, UnitBoundary) {
  using scrnet::scrmpi::coll_bytes;
  EXPECT_EQ(coll_bytes(0, Datatype::kDouble), 0u);
  // (2^29 - 1) * 8 = 0xFFFFFFF8 still fits.
  EXPECT_EQ(coll_bytes((1u << 29) - 1, Datatype::kDouble), 0xFFFFFFF8u);
  EXPECT_THROW(coll_bytes(1u << 29, Datatype::kDouble), std::invalid_argument);
  EXPECT_THROW(coll_bytes(0xFFFFFFFFu, Datatype::kInt64), std::invalid_argument);
}

TEST(CollBytes, CollectivesRejectOverflow) {
  run_scramnet_mpi(2, [](scrnet::sim::Process&, Mpi& mpi) {
    // The check fires before any buffer or network access, synchronously on
    // every rank, so nobody blocks: a 1-byte buffer with an absurd count is
    // safe to pass.
    u8 tiny[8] = {};
    double dtiny[1] = {};
    EXPECT_THROW(mpi.bcast(tiny, 1u << 29, Datatype::kDouble, 0, mpi.world()),
                 std::invalid_argument);
    EXPECT_THROW(mpi.allreduce(dtiny, dtiny, 1u << 29, Datatype::kDouble,
                               ReduceOp::kSum, mpi.world()),
                 std::invalid_argument);
    EXPECT_THROW(mpi.reduce(dtiny, dtiny, 1u << 29, Datatype::kDouble,
                            ReduceOp::kSum, 0, mpi.world()),
                 std::invalid_argument);
    EXPECT_THROW(
        mpi.gather(tiny, 1u << 29, Datatype::kDouble, tiny, 0, mpi.world()),
        std::invalid_argument);
    // Per-block count fits in u32 but block * np overflows the result.
    EXPECT_THROW(
        mpi.allgather(tiny, 0x90000000u, Datatype::kByte, tiny, mpi.world()),
        std::invalid_argument);
  });
}

// -- decision table ---------------------------------------------------------

const DecisionTable kTable({
    {"bbp", "bcast", 4, 1024, "native"},
    {"bbp", "bcast", kUnlimited, 1024, "binomial"},
    {"*", "bcast", kUnlimited, kUnlimited, "scatter_allgather"},
    {"*", "barrier", 8, kUnlimited, "dissemination"},
    {"*", "allreduce", kUnlimited, 256, "recursive_doubling"},
    {"*", "allreduce", kUnlimited, kUnlimited, "ring"},
    {"*", "allgather", kUnlimited, kUnlimited, "ring"},
});

TEST(DecisionTableTest, PickFirstMatch) {
  const DecisionTable& t = kTable;
  EXPECT_EQ(t.size(), 7u);
  // First match wins; limits are inclusive.
  EXPECT_EQ(t.pick("bbp", "bcast", 4, 1024), "native");
  EXPECT_EQ(t.pick("bbp", "bcast", 5, 1024), "binomial");
  EXPECT_EQ(t.pick("bbp", "bcast", 5, 1025), "scatter_allgather");
  EXPECT_EQ(t.pick("sock", "bcast", 2, 8), "scatter_allgather");
  EXPECT_EQ(t.pick("sock", "barrier", 8, 0), "dissemination");
  EXPECT_EQ(t.pick("sock", "barrier", 9, 0), "");  // no rule matches
  EXPECT_EQ(t.pick("rdma", "allreduce", 12, 256), "recursive_doubling");
  EXPECT_EQ(t.pick("rdma", "allreduce", 12, 257), "ring");
  EXPECT_EQ(t.pick("bbp", "alltoall", 4, 64), "");  // unknown op
}

TEST(DecisionTableTest, SerializeFormat) {
  EXPECT_EQ(kTable.serialize(),
            "table v1\n"
            "# device op max_nodes max_bytes algorithm\n"
            "bbp bcast 4 1024 native\n"
            "bbp bcast * 1024 binomial\n"
            "* bcast * * scatter_allgather\n"
            "* barrier 8 * dissemination\n"
            "* allreduce * 256 recursive_doubling\n"
            "* allreduce * * ring\n"
            "* allgather * * ring\n");
}

TEST(DecisionTableTest, MeasureRejectsUnknownOpsAndDevices) {
  scrnet::tune::MeasureSpec spec;
  spec.device = "bbp";
  spec.op = "scan";
  spec.algo = "binomial";
  EXPECT_THROW(scrnet::tune::measure_us(spec), scrnet::sim::ProcessError);  // thrown in a rank
  spec.op = "bcast";
  spec.device = "carrier_pigeon";
  EXPECT_THROW(scrnet::tune::measure_us(spec), std::invalid_argument);
}

TEST(DecisionTableTest, BuiltinCoversAllOps) {
  const DecisionTable& t = DecisionTable::builtin();
  for (const char* dev : {"bbp", "sock", "rdma", "hybrid", "generic"})
    for (const char* op : {"bcast", "barrier", "allreduce", "allgather"})
      for (u32 n : {2u, 4u, 8u, 12u, 64u})
        for (u32 b : {0u, 8u, 4096u, 1u << 20})
          EXPECT_NE(t.pick(dev, op, n, b), "")
              << dev << " " << op << " n=" << n << " b=" << b;
}

// kAuto consults the injected table: results stay correct whatever the
// table names, including unknown algorithm names (which degrade to the
// per-op fallback instead of throwing).
void auto_body(Mpi& mpi) {
  const auto& world = mpi.world();
  const u32 me = static_cast<u32>(mpi.rank(world));
  const u32 np = world.size();
  // All selectors left at kAuto. Both sides of the bcast size split.
  for (u32 bytes : {16u, 300u}) {
    const std::vector<u8> want = pattern(bytes, bytes);
    std::vector<u8> buf = (me == 1) ? want : std::vector<u8>(bytes, 0xEE);
    mpi.bcast(buf.data(), bytes, Datatype::kByte, 1, world);
    EXPECT_EQ(buf, want) << "kAuto bcast bytes=" << bytes << " rank=" << me;
  }
  mpi.barrier(world);
  double x = static_cast<double>(me + 1), y = 0.0;
  mpi.allreduce(&x, &y, 1, Datatype::kDouble, ReduceOp::kSum, world);
  EXPECT_EQ(y, static_cast<double>(np * (np + 1) / 2));
  u32 mine = me * 3 + 1;
  std::vector<u32> all(np, 0);
  mpi.allgather(&mine, 1, Datatype::kUint32, all.data(), world);
  for (u32 r = 0; r < np; ++r) EXPECT_EQ(all[r], r * 3 + 1);
}

TEST(DecisionTableTest, AutoFollowsInjectedTable) {
  const DecisionTable t({
      {"*", "bcast", kUnlimited, 64, "binomial"},
      {"*", "bcast", kUnlimited, kUnlimited, "ring"},
      {"*", "barrier", kUnlimited, kUnlimited, "dissemination"},
      {"*", "allreduce", kUnlimited, kUnlimited, "rabenseifner"},
      {"*", "allgather", kUnlimited, kUnlimited, "ring"},
  });
  run_scramnet_mpi(4, [&](scrnet::sim::Process&, Mpi& mpi) {
    mpi.set_decision_table(&t);
    auto_body(mpi);
  });
}

// Unknown algorithm names in a table degrade to the per-op fallback
// (binomial / combine-release / reduce_bcast / gather_bcast) instead of
// throwing, so a stale or hand-edited table stays safe.
TEST(DecisionTableTest, UnknownAlgoNameFallsBack) {
  const DecisionTable t({
      {"*", "bcast", kUnlimited, kUnlimited, "frobnicate"},
      {"*", "barrier", kUnlimited, kUnlimited, "frobnicate"},
      {"*", "allreduce", kUnlimited, kUnlimited, "frobnicate"},
      {"*", "allgather", kUnlimited, kUnlimited, "frobnicate"},
  });
  run_scramnet_mpi(3, [&](scrnet::sim::Process&, Mpi& mpi) {
    mpi.set_decision_table(&t);
    auto_body(mpi);
  });
}

// A table demanding `native` on a device without hardware multicast (the
// sock channel) must downgrade, not hang: kNativeMcast resolves to the
// binomial tree / combine-release barrier.
TEST(DecisionTableTest, NativeDowngradesWithoutMcast) {
  const DecisionTable t({
      {"*", "bcast", kUnlimited, kUnlimited, "native"},
      {"*", "barrier", kUnlimited, kUnlimited, "native"},
      {"*", "allreduce", kUnlimited, kUnlimited, "reduce_bcast"},
      {"*", "allgather", kUnlimited, kUnlimited, "gather_bcast"},
  });
  run_tcp_mpi(3, TcpFabricKind::kFastEthernet,
              [&](scrnet::sim::Process&, Mpi& mpi) {
                mpi.set_decision_table(&t);
                auto_body(mpi);
              });
}

}  // namespace
