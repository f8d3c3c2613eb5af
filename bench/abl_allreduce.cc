// Ablation: MPI_Allreduce algorithm choice on SCRAMNet vs Fast Ethernet.
//
// reduce+bcast leans on SCRAMNet's hardware multicast for its second half;
// recursive doubling is the classic low-latency algorithm on
// point-to-point networks; Rabenseifner and ring trade extra latency for
// moving each byte ~2x instead of log2(n)x, so they take over as vectors
// grow (arXiv cs/0408034). The comparison shows where the paper's
// "collectives from hardware multicast" design philosophy pays, where
// classic algorithms remain competitive, and where the bandwidth-optimal
// family wins -- the same crossovers the auto-tuner's decision table
// encodes (docs/collectives.md).
#include <iostream>

#include "bench_util.h"
#include "harness/benchops.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::harness;
using scrmpi::Mpi;

namespace {

double allreduce_us(bool scramnet, Mpi::AllreduceAlgo algo,
                    scrmpi::CollAlgo bcast_algo, u32 doubles, u32 nodes = 4,
                    u32 iters = 12, u32 warmup = 3) {
  SimTime t0 = 0, t1 = 0;
  auto body = [&](sim::Process& p, Mpi& mpi) {
    mpi.set_allreduce_algo(algo);
    mpi.set_bcast_algo(bcast_algo);
    const scrmpi::Comm& w = mpi.world();
    std::vector<double> in(doubles, 1.5), out(doubles);
    for (u32 i = 0; i < warmup + iters; ++i) {
      if (mpi.rank(w) == 0 && i == warmup) t0 = p.now();
      mpi.allreduce(in.data(), out.data(), doubles, scrmpi::Datatype::kDouble,
                    scrmpi::ReduceOp::kSum, w);
      if (mpi.rank(w) == 0 && i == warmup + iters - 1) t1 = p.now();
    }
  };
  if (scramnet) {
    ScramnetOptions opts;
    opts.ring.bank_words = 1u << 18;  // room for the 64 KiB vectors
    run_scramnet_mpi(nodes, body, opts);
  } else {
    run_tcp_mpi(nodes, TcpFabricKind::kFastEthernet, body);
  }
  return to_us(t1 - t0) / iters;
}

}  // namespace

int main(int argc, char** argv) {
  sweep::parse_args(argc, argv);  // --jobs only, which a run without a sweep ignores
  header("Ablation: MPI_Allreduce algorithms (4 nodes)",
         "collectives-from-multicast (paper Section 4) vs classic trees");

  const std::vector<u32> kElems{1, 16, 64, 128, 1024, 8192};
  Table t({"elements (doubles)", "SCR reduce+mcast-bcast (us)",
           "SCR reduce+p2p-bcast (us)", "SCR recursive-dbl (us)",
           "SCR rabenseifner (us)", "SCR ring (us)", "FE reduce+bcast (us)",
           "FE recursive-dbl (us)", "FE ring (us)"});
  std::vector<u32> bytes_axis;
  std::vector<double> scr_rd, scr_rab, scr_ring, fe_rd, fe_ring;
  double scr_mc4 = 0, scr_rd4 = 0, fe_rb4 = 0, fe_rd4 = 0;
  for (u32 n : kElems) {
    const double a = allreduce_us(true, Mpi::AllreduceAlgo::kReduceBcast,
                                  scrmpi::CollAlgo::kNativeMcast, n);
    const double b = allreduce_us(true, Mpi::AllreduceAlgo::kReduceBcast,
                                  scrmpi::CollAlgo::kPointToPoint, n);
    const double c = allreduce_us(true, Mpi::AllreduceAlgo::kRecursiveDoubling,
                                  scrmpi::CollAlgo::kPointToPoint, n);
    const double cr = allreduce_us(true, Mpi::AllreduceAlgo::kRabenseifner,
                                   scrmpi::CollAlgo::kPointToPoint, n);
    const double cg = allreduce_us(true, Mpi::AllreduceAlgo::kRing,
                                   scrmpi::CollAlgo::kPointToPoint, n);
    const double d = allreduce_us(false, Mpi::AllreduceAlgo::kReduceBcast,
                                  scrmpi::CollAlgo::kPointToPoint, n);
    const double e = allreduce_us(false, Mpi::AllreduceAlgo::kRecursiveDoubling,
                                  scrmpi::CollAlgo::kPointToPoint, n);
    const double eg = allreduce_us(false, Mpi::AllreduceAlgo::kRing,
                                   scrmpi::CollAlgo::kPointToPoint, n);
    if (n == 1) {
      scr_mc4 = a;
      scr_rd4 = c;
      fe_rb4 = d;
      fe_rd4 = e;
    }
    bytes_axis.push_back(n * 8);
    scr_rd.push_back(c);
    scr_rab.push_back(cr);
    scr_ring.push_back(cg);
    fe_rd.push_back(e);
    fe_ring.push_back(eg);
    t.add_row({std::to_string(n), Table::num(a), Table::num(b), Table::num(c),
               Table::num(cr), Table::num(cg), Table::num(d), Table::num(e),
               Table::num(eg)});
  }
  t.print(std::cout);

  std::cout << "\nChecks:\n";
  check_shape("hardware-mcast bcast phase beats the p2p tree on SCRAMNet",
              allreduce_us(true, Mpi::AllreduceAlgo::kReduceBcast,
                           scrmpi::CollAlgo::kNativeMcast, 16) <
                  allreduce_us(true, Mpi::AllreduceAlgo::kReduceBcast,
                               scrmpi::CollAlgo::kPointToPoint, 16));
  check_shape("recursive doubling beats reduce+bcast on Fast Ethernet",
              fe_rd4 < fe_rb4);
  check_shape("every SCRAMNet variant beats every FE variant at small sizes",
              scr_mc4 < fe_rd4 && scr_rd4 < fe_rd4);
  // The latency/bandwidth crossover the decision table encodes: recursive
  // doubling starts cheaper, the ~2x-bytes family wins for long vectors.
  report_crossover("FE: recursive doubling -> ring (allreduce)",
                   crossover(bytes_axis, fe_rd, fe_ring), 256, 65536);
  report_crossover("SCR: recursive doubling -> rabenseifner (allreduce)",
                   crossover(bytes_axis, scr_rd, scr_rab), 256, 65536);
  check_shape("SCR: ring beats recursive doubling at 64 KiB vectors",
              scr_ring.back() < scr_rd.back());
  return 0;
}
