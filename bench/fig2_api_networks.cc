// Figure 2: One-way latency at the API layer -- SCRAMNet (BillBoard API)
// vs Fast Ethernet (TCP/IP), ATM (TCP/IP), Myrinet (native API) and
// Myrinet (TCP/IP).
//
// Paper claims (Section 5, OCR-reconstructed sizes, see EXPERIMENTS.md):
//  * SCRAMNet beats Fast Ethernet up to "several thousand bytes";
//  * beats ATM below ~1000-1800 B;
//  * beats the native Myrinet API below ~500 B;
//  * Myrinet over TCP/IP is slower than Fast Ethernet TCP/IP for small
//    messages.
#include <iostream>

#include "bench_util.h"
#include "harness/benchops.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::harness;

int main(int argc, char** argv) {
  sweep::Runner runner(sweep::parse_args(argc, argv).jobs);

  header("Figure 2: API-layer one-way latency across networks",
         "Moorthy et al., IPPS 1999, Figure 2");

  const std::vector<u32> sizes{0,    4,    64,   128,  256,  512, 750,
                               1000, 1500, 2000, 3000, 4000, 5000};
  const auto tcp = [&](TcpFabricKind kind) {
    return runner.map("tcp_api_oneway." + to_string(kind), sizes,
                      [kind](u32 b) { return tcp_api_oneway_us(kind, b); });
  };
  Series scr{"SCRAMNet API", runner.map("bbp_oneway", sizes, [](u32 b) {
               return bbp_oneway_us(b);
             })},
      fe{"FastEth TCP", tcp(TcpFabricKind::kFastEthernet)},
      atm{"ATM TCP", tcp(TcpFabricKind::kAtm)},
      myr_api{"Myrinet API", runner.map("myr_api_oneway", sizes, [](u32 b) {
                return myrinet_api_oneway_us(b);
              })},
      myr_tcp{"Myrinet TCP", tcp(TcpFabricKind::kMyrinet)};
  print_series(sizes, {scr, fe, atm, myr_api, myr_tcp});

  std::cout << "\nShape checks (paper Section 5):\n";
  check_shape("SCRAMNet fastest at 4 bytes",
              scr.us[1] < fe.us[1] && scr.us[1] < atm.us[1] &&
                  scr.us[1] < myr_api.us[1] && scr.us[1] < myr_tcp.us[1]);
  report_crossover("SCRAMNet vs Fast Ethernet (\"several thousand bytes\")",
                   crossover(sizes, scr.us, fe.us), 1800, 6000);
  report_crossover("SCRAMNet vs ATM (paper: ~\"1?00 bytes\", OCR-damaged)",
                   crossover(sizes, scr.us, atm.us), 900, 2000);
  report_crossover("SCRAMNet vs Myrinet API (paper: ~\"5?0 bytes\")",
                   crossover(sizes, scr.us, myr_api.us), 350, 650);
  check_shape("Myrinet TCP slower than Fast Ethernet TCP at small sizes",
              myr_tcp.us[1] > fe.us[1]);
  check_shape("Myrinet API eventually fastest of all (high bandwidth)",
              myr_api.us.back() < scr.us.back() &&
                  myr_api.us.back() < fe.us.back() &&
                  myr_api.us.back() < atm.us.back());
  return 0;
}
