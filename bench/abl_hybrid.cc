// Ablation/extension: the hybrid SCRAMNet + Myrinet cluster the paper's
// conclusion proposes -- "low latency as well as high bandwidth".
//
// One MPI latency curve per configuration: pure SCRAMNet, pure Myrinet
// (TCP), and the hybrid channel with a 2 KB threshold. The hybrid curve
// should hug SCRAMNet below the threshold and Myrinet above it.
#include <iostream>

#include "bench_util.h"
#include "harness/benchops.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::harness;

namespace {

constexpr u32 kThreshold = 512;  // near the SCRAMNet/Myrinet latency crossover

}  // namespace

int main(int argc, char** argv) {
  sweep::parse_args(argc, argv);  // --jobs only, which a run without a sweep ignores
  header("Extension: hybrid SCRAMNet+Myrinet cluster (MPI latency)",
         "the paper's Section 7 conclusion, implemented (512 B threshold)");

  const std::vector<u32> sizes{0,    4,    64,   512,  1024, 2048,
                               4096, 8192, 16384, 65536};
  Series scr{"SCRAMNet only", {}}, myr{"Myrinet TCP only", {}},
      hyb{"Hybrid (512B split)", {}};
  for (u32 s : sizes) {
    scr.us.push_back(mpi_scramnet_oneway_us(s, 2));
    myr.us.push_back(mpi_tcp_oneway_us(TcpFabricKind::kMyrinet, s));
    hyb.us.push_back(mpi_hybrid_oneway_us(s, kThreshold));
  }
  print_series(sizes, {scr, myr, hyb});

  std::cout << "\nChecks:\n";
  check_shape("hybrid tracks SCRAMNet for small messages (<= threshold)",
              hyb.us[1] < myr.us[1] && hyb.us[1] < scr.us[1] * 1.2);
  check_shape("hybrid tracks Myrinet for bulk messages (64 KB)",
              hyb.us.back() < scr.us.back() * 0.5 &&
                  hyb.us.back() < myr.us.back() * 1.3);
  bool envelope = true;
  for (usize i = 0; i < sizes.size(); ++i) {
    if (hyb.us[i] > 1.35 * std::min(scr.us[i], myr.us[i])) envelope = false;
  }
  check_shape("hybrid stays near min(SCRAMNet, Myrinet) across all sizes",
              envelope);
  return 0;
}
