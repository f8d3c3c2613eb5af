// Figure 1: One-way message latency on SCRAMNet at the BillBoard API level
// and at the MPI level, for 0-64 bytes and 0-1000 bytes.
//
// Paper values: API 0 B = 6.5 us, 4 B = 7.8 us; MPI 0 B = 44 us,
// 4 B = 49 us; "the MPI layer only adds a constant overhead to the API
// layer latency".
#include <iostream>

#include "bench_util.h"
#include "harness/benchops.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::harness;

namespace {

struct Panel {
  Series api, mpi, delta;
};

Panel measure(const std::vector<u32>& sizes, sweep::Runner& runner) {
  Panel pn{{"SCRAMNet API", runner.map("bbp_oneway", sizes,
                                       [](u32 b) { return bbp_oneway_us(b); })},
           {"MPI", runner.map("mpi_scr_oneway", sizes, [](u32 b) {
              return mpi_scramnet_oneway_us(b);
            })},
           {"MPI - API", {}}};
  for (usize i = 0; i < sizes.size(); ++i)
    pn.delta.us.push_back(pn.mpi.us[i] - pn.api.us[i]);
  return pn;
}

void print_panel(const std::vector<u32>& sizes, const Panel& pn,
                 const char* label) {
  std::cout << "\n-- " << label << " --\n";
  print_series(sizes, {pn.api, pn.mpi, pn.delta});
}

}  // namespace

int main(int argc, char** argv) {
  sweep::Runner runner(sweep::parse_args(argc, argv).jobs);

  header("Figure 1: SCRAMNet one-way latency, BillBoard API vs MPI",
         "Moorthy et al., IPPS 1999, Figure 1 + Section 5 headline numbers");

  const std::vector<u32> small{0, 4, 8, 16, 32, 48, 64};
  const std::vector<u32> large{0, 128, 256, 384, 512, 640, 768, 896, 1000};
  const Panel psmall = measure(small, runner);
  const Panel plarge = measure(large, runner);
  print_panel(small, psmall, "small messages (0-64 bytes)");
  print_panel(large, plarge, "0-1000 bytes");

  std::cout << "\nHeadline checks:\n";
  // The sweeps above already measured these points (deterministic
  // simulations: re-running would reproduce the exact same doubles).
  const double api0 = psmall.api.us[0];
  const double api4 = psmall.api.us[1];
  const double mpi0 = psmall.mpi.us[0];
  const double mpi4 = psmall.mpi.us[1];
  check("API 0-byte one-way", 6.5, api0, 0.15);
  check("API 4-byte one-way", 7.8, api4, 0.15);
  check("MPI 0-byte one-way", 44.0, mpi0, 0.15);
  check("MPI 4-byte one-way", 49.0, mpi4, 0.15);

  // Constant-overhead claim (paper's small-message panel): the MPI-API gap
  // stays nearly constant across 0-64 B. Over the 0-1000 B panel the gap
  // grows slowly with size -- that per-byte term is the channel-interface
  // copy, and it is also what produces Figure 3's 512 B crossover against
  // Fast Ethernet (a strictly constant overhead could not: SCRAMNet-MPI
  // would then stay below Fast-Ethernet-MPI far beyond 1 KB).
  const double gap0 = mpi0 - api0;
  const double gap64 = psmall.delta.us.back();
  check_shape("MPI adds a near-constant overhead for small messages (gap@0B=" +
                  Table::num(gap0) + "us, gap@64B=" + Table::num(gap64) + "us)",
              gap64 < 1.5 * gap0);
  return 0;
}
