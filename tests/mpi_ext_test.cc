// Tests for the extended MPI surface: waitany, alltoall and call stats.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "harness/cluster.h"

namespace scrnet::scrmpi {
namespace {

using harness::run_scramnet_mpi;

TEST(MpiExt, WaitanyReturnsFirstCompletion) {
  run_scramnet_mpi(3, [](sim::Process& p, Mpi& mpi) {
    const Comm& w = mpi.world();
    const i32 me = mpi.rank(w);
    if (me == 0) {
      // Post receives from both peers; rank 2 sends much later, so the
      // rank-1 request must complete first via waitany.
      i32 a = 0, b = 0;
      std::vector<Request> rs;
      rs.push_back(mpi.irecv(&a, 1, Datatype::kInt32, 1, 0, w));
      rs.push_back(mpi.irecv(&b, 1, Datatype::kInt32, 2, 0, w));
      auto [idx1, st1] = mpi.waitany(rs, w);
      EXPECT_EQ(idx1, 0u);
      EXPECT_EQ(st1.source, 1);
      EXPECT_FALSE(rs[0].valid());
      auto [idx2, st2] = mpi.waitany(rs, w);
      EXPECT_EQ(idx2, 1u);
      EXPECT_EQ(st2.source, 2);
      EXPECT_EQ(a, 100);
      EXPECT_EQ(b, 200);
    } else if (me == 1) {
      const i32 v = 100;
      mpi.send(&v, 1, Datatype::kInt32, 0, 0, w);
    } else {
      p.delay(ms(2));
      const i32 v = 200;
      mpi.send(&v, 1, Datatype::kInt32, 0, 0, w);
    }
  });
}

TEST(MpiExt, AlltoallPersonalizedExchange) {
  run_scramnet_mpi(4, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    const u32 me = static_cast<u32>(mpi.rank(w));
    // Block (me -> j) carries value me*100 + j.
    std::vector<u32> in(4), out(4, 0xFFFFFFFFu);
    for (u32 j = 0; j < 4; ++j) in[j] = me * 100 + j;
    mpi.alltoall(in.data(), out.data(), 1, Datatype::kUint32, w);
    for (u32 j = 0; j < 4; ++j) EXPECT_EQ(out[j], j * 100 + me);
  });
}

TEST(MpiExt, AlltoallMultiElementBlocks) {
  run_scramnet_mpi(3, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    const u32 me = static_cast<u32>(mpi.rank(w));
    constexpr u32 kBlock = 16;
    std::vector<u8> in(3 * kBlock), out(3 * kBlock);
    for (u32 j = 0; j < 3; ++j)
      fill_pattern(std::span<u8>(in.data() + j * kBlock, kBlock), me * 10 + j);
    mpi.alltoall(in.data(), out.data(), kBlock, Datatype::kByte, w);
    for (u32 j = 0; j < 3; ++j) {
      EXPECT_TRUE(check_pattern(
          std::span<const u8>(out.data() + j * kBlock, kBlock), j * 10 + me));
    }
  });
}

TEST(MpiExt, CallStatsAccumulate) {
  run_scramnet_mpi(2, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    const i32 me = mpi.rank(w);
    std::vector<u8> buf(64);
    for (int i = 0; i < 3; ++i) {
      if (me == 0)
        mpi.send(buf.data(), 64, Datatype::kByte, 1, 0, w);
      else
        mpi.recv(buf.data(), 64, Datatype::kByte, 0, 0, w);
    }
    mpi.barrier(w);
    u32 v = 0;
    mpi.bcast(&v, 1, Datatype::kUint32, 0, w);
    const CallStats& st = mpi.stats();
    if (me == 0) {
      EXPECT_EQ(st.sends, 3u);
      EXPECT_EQ(st.bytes_sent, 192u);
    } else {
      EXPECT_EQ(st.recvs, 3u);
      EXPECT_EQ(st.bytes_received, 192u);
    }
    EXPECT_EQ(st.barriers, 1u);
    EXPECT_EQ(st.bcasts, 1u);
    EXPECT_GT(st.time_in_mpi, 0);
  });
}

TEST(MpiExt, TimeInMpiReflectsBlocking) {
  run_scramnet_mpi(2, [](sim::Process& p, Mpi& mpi) {
    const Comm& w = mpi.world();
    if (mpi.rank(w) == 0) {
      p.delay(ms(1));  // keep the receiver blocked ~1ms
      u8 b = 1;
      mpi.send(&b, 1, Datatype::kByte, 1, 0, w);
    } else {
      u8 b = 0;
      mpi.recv(&b, 1, Datatype::kByte, 0, 0, w);
      // The receiver spent ~1ms inside MPI_Recv.
      EXPECT_GT(mpi.stats().time_in_mpi, us(900));
    }
  });
}

class AllreduceAlgoTest
    : public ::testing::TestWithParam<std::tuple<u32 /*nodes*/, u32 /*count*/>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllreduceAlgoTest,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 5u, 8u),
                       ::testing::Values(1u, 7u, 64u)),
    [](const auto& ti) {
      std::string name = "n";
      name += std::to_string(std::get<0>(ti.param));
      name += "_c";
      name += std::to_string(std::get<1>(ti.param));
      return name;
    });

TEST_P(AllreduceAlgoTest, RecursiveDoublingMatchesReduceBcast) {
  const auto [nodes, count] = GetParam();
  run_scramnet_mpi(nodes, [count = count](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    const i32 me = mpi.rank(w);
    std::vector<i64> in(count), a(count), b(count);
    for (u32 i = 0; i < count; ++i)
      in[i] = (me + 1) * 100 + static_cast<i64>(i);
    mpi.set_allreduce_algo(Mpi::AllreduceAlgo::kReduceBcast);
    mpi.allreduce(in.data(), a.data(), count, Datatype::kInt64, ReduceOp::kSum, w);
    mpi.set_allreduce_algo(Mpi::AllreduceAlgo::kRecursiveDoubling);
    mpi.allreduce(in.data(), b.data(), count, Datatype::kInt64, ReduceOp::kSum, w);
    EXPECT_EQ(a, b);
    // Closed form: sum over ranks r of (r+1)*100 + i.
    const i64 base = 100LL * (static_cast<i64>(mpi.size(w)) *
                              (static_cast<i64>(mpi.size(w)) + 1) / 2);
    for (u32 i = 0; i < count; ++i)
      EXPECT_EQ(a[i], base + static_cast<i64>(i) * static_cast<i64>(mpi.size(w)));
  });
}

TEST(MpiExt, RecursiveDoublingMaxOnNonPowerOfTwo) {
  run_scramnet_mpi(6, [](sim::Process&, Mpi& mpi) {
    mpi.set_allreduce_algo(Mpi::AllreduceAlgo::kRecursiveDoubling);
    const Comm& w = mpi.world();
    const double mine = 2.5 * (mpi.rank(w) + 1);
    double out = 0;
    mpi.allreduce(&mine, &out, 1, Datatype::kDouble, ReduceOp::kMax, w);
    EXPECT_DOUBLE_EQ(out, 15.0);
  });
}

/// apply_reduce over {3, 0} (accumulator) and {5, 2} (input) for every op;
/// BAND and BOR are integer-only and throw on floating types.
template <typename T>
void expect_reduce_table(Datatype dt) {
  const std::pair<ReduceOp, std::array<T, 2>> cases[] = {
      {ReduceOp::kSum, {8, 2}},  {ReduceOp::kProd, {15, 0}}, {ReduceOp::kMax, {5, 2}},
      {ReduceOp::kMin, {3, 0}},  {ReduceOp::kLand, {1, 0}},  {ReduceOp::kLor, {1, 1}},
      {ReduceOp::kBand, {1, 0}}, {ReduceOp::kBor, {7, 2}},
  };
  for (const auto& [op, want] : cases) {
    std::array<T, 2> acc = {3, 0};
    const std::array<T, 2> in = {5, 2};
    if (!std::is_integral_v<T> && (op == ReduceOp::kBand || op == ReduceOp::kBor)) {
      EXPECT_THROW(apply_reduce(dt, op, acc.data(), in.data(), 2), std::runtime_error);
      continue;
    }
    apply_reduce(dt, op, acc.data(), in.data(), 2);
    EXPECT_EQ(acc, want) << datatype_name(dt) << " op " << static_cast<int>(op);
  }
}

TEST(Reduce, EveryDatatypeTimesEveryOp) {
  expect_reduce_table<u8>(Datatype::kByte);
  expect_reduce_table<u8>(Datatype::kChar);
  expect_reduce_table<i32>(Datatype::kInt32);
  expect_reduce_table<u32>(Datatype::kUint32);
  expect_reduce_table<i64>(Datatype::kInt64);
  expect_reduce_table<float>(Datatype::kFloat);
  expect_reduce_table<double>(Datatype::kDouble);
  u8 a = 1, b = 2;
  EXPECT_THROW(apply_reduce(static_cast<Datatype>(0xEE), ReduceOp::kSum, &a, &b, 1),
               std::runtime_error);
}

TEST(Types, EveryDatatypeAndAlgorithmHasAName) {
  const std::pair<Datatype, std::string_view> types[] = {
      {Datatype::kByte, "BYTE"},     {Datatype::kChar, "CHAR"},
      {Datatype::kInt32, "INT32"},   {Datatype::kUint32, "UINT32"},
      {Datatype::kInt64, "INT64"},   {Datatype::kFloat, "FLOAT"},
      {Datatype::kDouble, "DOUBLE"},
  };
  for (const auto& [dt, name] : types) EXPECT_EQ(datatype_name(dt), name);
  EXPECT_EQ(datatype_name(static_cast<Datatype>(0xEE)), "?");
  EXPECT_EQ(coll_algo_name(CollAlgo::kAuto), "auto");
  EXPECT_EQ(coll_algo_name(static_cast<CollAlgo>(99)), "?");
  EXPECT_EQ(allreduce_algo_name(AllreduceAlgo::kAuto), "auto");
  EXPECT_EQ(allreduce_algo_name(static_cast<AllreduceAlgo>(99)), "?");
  EXPECT_EQ(allgather_algo_name(AllgatherAlgo::kAuto), "auto");
  EXPECT_EQ(allgather_algo_name(static_cast<AllgatherAlgo>(99)), "?");
}

TEST(MpiExt, NativeBcastSizeMismatchAcrossRanksThrows) {
  // The root broadcasts 16 bytes while rank 1 expects 8: rank 1 must fail
  // loudly instead of overrunning its buffer.
  EXPECT_THROW(run_scramnet_mpi(2,
                                [](sim::Process&, Mpi& mpi) {
                                  mpi.set_bcast_algo(CollAlgo::kNativeMcast);
                                  std::vector<u8> buf(16, 1);
                                  const u32 n = mpi.rank(mpi.world()) == 0 ? 16 : 8;
                                  mpi.bcast(buf.data(), n, Datatype::kByte, 0, mpi.world());
                                }),
               std::exception);
}

TEST(MpiExt, UnknownTcpFabricKindHasNoFabric) {
  const auto bogus = static_cast<harness::TcpFabricKind>(7);
  EXPECT_EQ(harness::to_string(bogus), "?");
  EXPECT_EQ(harness::default_stack(bogus).send_fixed, netmodels::TcpConfig{}.send_fixed);
  sim::Simulation sim;
  EXPECT_EQ(harness::make_fabric(sim, 2, bogus, {}), nullptr);
}

}  // namespace
}  // namespace scrnet::scrmpi
