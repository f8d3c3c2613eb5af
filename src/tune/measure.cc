#include "tune/measure.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "harness/benchops.h"
#include "scrmpi/coll.h"
#include "scrmpi/mpi.h"

namespace scrnet::tune {

namespace {

using harness::RoundClock;
using scrmpi::AllgatherAlgo;
using scrmpi::AllreduceAlgo;
using scrmpi::CollAlgo;
using scrmpi::Comm;
using scrmpi::Datatype;
using scrmpi::Mpi;
using scrmpi::ReduceOp;

void run_rounds(sim::Process& p, Mpi& mpi, const MeasureSpec& s,
                RoundClock& clk) {
  const Comm& w = mpi.world();
  const u32 me = static_cast<u32>(mpi.rank(w));
  const u32 rounds = MeasureSpec::warmup + MeasureSpec::iters;

  // Pin every selector so the measurement is independent of the decision
  // table (the tuner is *producing* the table): composite algorithms
  // (reduce_bcast, gather_bcast) run over the device's natural defaults,
  // and the inter-round sync barrier is always combine-release so it
  // never aliases the algorithm under test.
  mpi.set_bcast_algo(CollAlgo::kNativeMcast);  // binomial w/o the hardware
  mpi.set_barrier_algo(CollAlgo::kPointToPoint);
  mpi.set_allreduce_algo(AllreduceAlgo::kReduceBcast);
  mpi.set_allgather_algo(AllgatherAlgo::kGatherBcast);

  // One timed call per round, after a combine-release sync barrier outside
  // the measured window; done is the last rank's return.
  const auto synced_rounds = [&](sim::FnRef<void()> op) {
    for (u32 i = 0; i < rounds; ++i) {
      mpi.barrier(w);
      if (me == 0) clk.start[i] = p.now();
      op();
      clk.record_done(i, p.now());
    }
  };

  if (s.op == "barrier") {
    mpi.set_barrier_algo(
        scrmpi::coll::coll_algo_from_name(s.algo, CollAlgo::kPointToPoint));
    // Back-to-back barriers: steady-state per-call latency at rank 0
    // equals the true barrier period (the next combine cannot finish
    // before the previous release lands everywhere).
    for (u32 i = 0; i < rounds; ++i) {
      if (me == 0) clk.start[i] = p.now();
      mpi.barrier(w);
      if (me == 0) clk.record_done(i, p.now());
    }
    return;
  }

  if (s.op == "bcast") {
    mpi.set_bcast_algo(
        scrmpi::coll::coll_algo_from_name(s.algo, CollAlgo::kBinomial));
    std::vector<u8> buf(std::max<u32>(s.bytes, 1), 0x5a);
    synced_rounds([&] { mpi.bcast(buf.data(), s.bytes, Datatype::kByte, 0, w); });
    return;
  }

  if (s.op == "allreduce") {
    mpi.set_allreduce_algo(scrmpi::coll::allreduce_algo_from_name(
        s.algo, AllreduceAlgo::kReduceBcast));
    const u32 count = std::max<u32>(1, s.bytes / 8);
    // Small exact integers: every reduction order sums associatively
    // exactly, so the result (though unused) is algorithm-independent.
    std::vector<double> in(count), out(count);
    for (u32 i = 0; i < count; ++i) in[i] = static_cast<double>(i % 64);
    synced_rounds([&] {
      mpi.allreduce(in.data(), out.data(), count, Datatype::kDouble, ReduceOp::kSum, w);
    });
    return;
  }

  if (s.op == "allgather") {
    mpi.set_allgather_algo(scrmpi::coll::allgather_algo_from_name(
        s.algo, AllgatherAlgo::kGatherBcast));
    const u32 block = std::max<u32>(s.bytes, 1);
    std::vector<u8> in(block, static_cast<u8>(me)), out(block * s.nodes);
    synced_rounds(
        [&] { mpi.allgather(in.data(), block, Datatype::kByte, out.data(), w); });
    return;
  }

  throw std::invalid_argument("tune: unknown op '" + s.op + "'");
}

}  // namespace

std::vector<std::string> candidates(std::string_view device,
                                    std::string_view op) {
  std::vector<std::string> out;
  if (op == "bcast") {
    if (device == "bbp") out.push_back("native");
    out.insert(out.end(),
               {"binomial", "scatter_allgather", "ring", "chain"});
  } else if (op == "barrier") {
    if (device == "bbp") out.push_back("native");
    out.insert(out.end(), {"p2p", "dissemination"});
  } else if (op == "allreduce") {
    out = {"reduce_bcast", "recursive_doubling", "rabenseifner", "ring"};
  } else if (op == "allgather") {
    out = {"gather_bcast", "ring"};
  }
  return out;
}

double measure_us(const MeasureSpec& spec) {
  RoundClock clk(MeasureSpec::warmup + MeasureSpec::iters);
  const auto body = [&](sim::Process& p, Mpi& mpi) {
    run_rounds(p, mpi, spec, clk);
  };
  if (spec.device == "bbp") {
    harness::run_scramnet_mpi(spec.nodes, body, {});
  } else if (spec.device == "sock") {
    harness::run_tcp_mpi(spec.nodes, harness::TcpFabricKind::kFastEthernet,
                         body, {});
  } else if (spec.device == "rdma") {
    harness::run_rdma_mpi(spec.nodes, body, {});
  } else {
    throw std::invalid_argument("tune: unknown device '" + spec.device + "'");
  }
  return clk.avg_us(MeasureSpec::warmup);
}

}  // namespace scrnet::tune
