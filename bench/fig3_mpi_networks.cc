// Figure 3: One-way MPI-level latency -- SCRAMNet (MPICH over the
// BillBoard API) vs Fast Ethernet and ATM (MPICH over TCP/IP).
//
// Paper claims: SCRAMNet faster than Fast Ethernet below ~512 B and
// faster than ATM below ~580 B (OCR: "58 bytes").
#include <iostream>

#include "bench_util.h"
#include "harness/benchops.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::harness;

int main(int argc, char** argv) {
  sweep::Runner runner(sweep::parse_args(argc, argv).jobs);

  header("Figure 3: MPI point-to-point latency across networks",
         "Moorthy et al., IPPS 1999, Figure 3");

  const std::vector<u32> sizes{0, 4, 64, 128, 256, 384, 512, 640, 768, 896, 1000};
  const auto tcp = [&](TcpFabricKind kind) {
    return runner.map("mpi_tcp_oneway." + to_string(kind), sizes,
                      [kind](u32 b) { return mpi_tcp_oneway_us(kind, b); });
  };
  Series scr{"SCRAMNet MPI", runner.map("mpi_scr_oneway", sizes, [](u32 b) {
               return mpi_scramnet_oneway_us(b);
             })},
      fe{"FastEth MPI", tcp(TcpFabricKind::kFastEthernet)},
      atm{"ATM MPI", tcp(TcpFabricKind::kAtm)};
  print_series(sizes, {scr, fe, atm});

  std::cout << "\nShape checks (paper Section 5):\n";
  check_shape("SCRAMNet fastest at 0/4 bytes",
              scr.us[0] < fe.us[0] && scr.us[0] < atm.us[0] &&
                  scr.us[1] < fe.us[1] && scr.us[1] < atm.us[1]);
  report_crossover("SCRAMNet vs Fast Ethernet (paper: ~512 B)",
                   crossover(sizes, scr.us, fe.us), 350, 700);
  report_crossover("SCRAMNet vs ATM (paper: ~580 B)",
                   crossover(sizes, scr.us, atm.us), 400, 800);
  const auto x_fe = crossover(sizes, scr.us, fe.us);
  const auto x_atm = crossover(sizes, scr.us, atm.us);
  check_shape("ATM crossover beyond Fast Ethernet's (ATM slope is flatter)",
              x_fe && x_atm && *x_atm > *x_fe);
  return 0;
}
