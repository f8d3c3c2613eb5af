// Figure 4: SCRAMNet point-to-point vs 4-node broadcast latency at the
// BillBoard API level.
//
// Paper claims: "a 4-node broadcast adds very little overhead to a unicast
// message" -- 4-byte broadcast to 4 nodes measured at 10.1 us vs 7.8 us
// point-to-point (abstract; OCR of "1.1" reconstructed as 10.1).
#include <iostream>

#include "bench_util.h"
#include "harness/benchops.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::harness;

int main(int argc, char** argv) {
  sweep::Runner runner(sweep::parse_args(argc, argv).jobs);

  header("Figure 4: SCRAMNet point-to-point vs 4-node broadcast (API level)",
         "Moorthy et al., IPPS 1999, Figure 4 + abstract");

  const std::vector<u32> sizes{0, 4, 16, 64, 128, 256, 512, 750, 1000};
  Series p2p{"Point-to-Point", runner.map("bbp_oneway", sizes, [](u32 b) {
               return bbp_oneway_us(b);
             })},
      bc{"4-node Broadcast",
         runner.map("bbp_bcast", sizes, [](u32 b) { return bbp_bcast_us(b); })},
      d{"Delta", {}};
  for (usize i = 0; i < sizes.size(); ++i)
    d.us.push_back(bc.us[i] - p2p.us[i]);
  print_series(sizes, {p2p, bc, d});

  std::cout << "\nHeadline checks:\n";
  check("4-byte point-to-point", 7.8, p2p.us[1], 0.15);
  check("4-byte 4-node broadcast", 10.1, bc.us[1], 0.25);
  std::cout << "\nShape checks:\n";
  bool small_delta = true;
  for (usize i = 0; i < sizes.size(); ++i) {
    // "very little overhead": the broadcast premium stays a few us and does
    // not grow with message size (single-step hardware replication).
    if (d.us[i] > 8.0) small_delta = false;
  }
  check_shape("broadcast premium stays small and size-independent", small_delta);
  return 0;
}
