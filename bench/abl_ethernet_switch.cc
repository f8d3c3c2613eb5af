// Ablation: cut-through vs store-and-forward Fast Ethernet switching, and
// its effect on where SCRAMNet's advantage ends (Figure 2's crossover).
#include <iostream>

#include "bench_util.h"
#include "harness/benchops.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::harness;

int main(int argc, char** argv) {
  sweep::parse_args(argc, argv);  // --jobs only, which a run without a sweep ignores
  header("Ablation: Ethernet switch forwarding mode",
         "sensitivity of Figure 2's SCRAMNet-vs-FastEthernet crossover");

  netmodels::EthernetConfig ct;  // default: cut-through
  netmodels::EthernetConfig snf;
  snf.store_and_forward = true;

  const std::vector<u32> sizes{0, 64, 256, 512, 1000, 1500, 3000, 5000};
  Series scr{"SCRAMNet API", {}}, fe_ct{"FE TCP cut-through", {}},
      fe_snf{"FE TCP store&fwd", {}};
  for (u32 s : sizes) {
    scr.us.push_back(bbp_oneway_us(s));
    fe_ct.us.push_back(
        tcp_api_oneway_us(TcpFabricKind::kFastEthernet, s, kIters, kWarmup, ct));
    fe_snf.us.push_back(
        tcp_api_oneway_us(TcpFabricKind::kFastEthernet, s, kIters, kWarmup, snf));
  }
  print_series(sizes, {scr, fe_ct, fe_snf});

  std::cout << "\nChecks:\n";
  check_shape("store-and-forward adds ~a frame time per full frame",
              fe_snf.us[5] - fe_ct.us[5] > 80.0);
  const auto x_ct = crossover(sizes, scr.us, fe_ct.us);
  const auto x_snf = crossover(sizes, scr.us, fe_snf.us);
  std::cout << "  crossover (cut-through): "
            << (x_ct ? std::to_string(static_cast<int>(*x_ct)) + " B" : "none")
            << "; (store-and-forward): "
            << (x_snf ? std::to_string(static_cast<int>(*x_snf)) + " B" : "none")
            << "\n";
  check_shape("store-and-forward pushes the crossover further out (or away)",
              !x_snf || (x_ct && *x_snf > *x_ct));
  return 0;
}
