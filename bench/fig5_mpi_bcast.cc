// Figure 5: 4-node MPI_Bcast -- Fast Ethernet (MPICH point-to-point tree),
// SCRAMNet with the same point-to-point tree, and SCRAMNet using the
// BillBoard API multicast.
//
// Paper claims: point-to-point SCRAMNet beats Fast Ethernet below ~450 B;
// the API-multicast implementation is "much faster" and stays below Fast
// Ethernet through the full plotted range (up to 1 KB).
#include <iostream>

#include "bench_util.h"
#include "harness/benchops.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::harness;

int main(int argc, char** argv) {
  sweep::Runner runner(sweep::parse_args(argc, argv).jobs);

  header("Figure 5: 4-node MPI_Bcast on SCRAMNet and Fast Ethernet",
         "Moorthy et al., IPPS 1999, Figure 5");

  const std::vector<u32> sizes{0, 4, 64, 128, 256, 384, 512, 640, 768, 896, 1000};
  const auto scr = [&](scrmpi::CollAlgo algo) {
    return runner.map("mpi_scr_bcast", sizes, [algo](u32 b) {
      return mpi_scramnet_bcast_us(b, algo);
    });
  };
  Series fe{"FastEth p2p-tree",
            runner.map("mpi_tcp_bcast." + to_string(TcpFabricKind::kFastEthernet),
                       sizes, [](u32 b) {
                         return mpi_tcp_bcast_us(TcpFabricKind::kFastEthernet, b);
                       })},
      scr_p2p{"SCRAMNet p2p-tree", scr(scrmpi::CollAlgo::kPointToPoint)},
      scr_mc{"SCRAMNet API-mcast", scr(scrmpi::CollAlgo::kNativeMcast)};
  print_series(sizes, {fe, scr_p2p, scr_mc});

  std::cout << "\nShape checks (paper Section 5):\n";
  check_shape("SCRAMNet p2p-tree beats Fast Ethernet for small messages",
              scr_p2p.us[1] < fe.us[1]);
  report_crossover("SCRAMNet p2p-tree vs Fast Ethernet (paper: ~450 B)",
                   crossover(sizes, scr_p2p.us, fe.us), 300, 700);
  bool mc_below_fe = true;
  for (usize i = 0; i < sizes.size(); ++i)
    if (scr_mc.us[i] >= fe.us[i]) mc_below_fe = false;
  check_shape("API-multicast bcast faster than Fast Ethernet up to 1 KB",
              mc_below_fe);
  bool mc_below_p2p = true;
  for (usize i = 0; i < sizes.size(); ++i)
    if (scr_mc.us[i] >= scr_p2p.us[i]) mc_below_p2p = false;
  check_shape("API-multicast bcast \"much faster\" than the p2p tree",
              mc_below_p2p && scr_mc.us[1] * 1.8 < scr_p2p.us[1]);
  return 0;
}
