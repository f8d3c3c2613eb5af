// Ablation: fixed 4-byte vs variable-length SCRAMNet packet mode under the
// BillBoard Protocol (Section 2 discusses the tradeoff: fixed packets have
// the lowest latency, variable packets 2.5x the throughput).
#include <iostream>

#include "bench_util.h"
#include "harness/benchops.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::harness;

int main(int argc, char** argv) {
  sweep::parse_args(argc, argv);  // --jobs only, which a run without a sweep ignores
  header("Ablation: SCRAMNet packet mode (fixed 4-byte vs variable)",
         "design choice from Section 2 of the paper");

  ScramnetOptions fixed;
  fixed.ring.mode = scramnet::PacketMode::kFixed4;
  ScramnetOptions variable;
  variable.ring.mode = scramnet::PacketMode::kVariable;

  const std::vector<u32> sizes{0, 4, 64, 256, 1024, 4096};
  Series f{"fixed-4B latency", {}}, v{"variable latency", {}};
  for (u32 s : sizes) {
    f.us.push_back(bbp_oneway_us(s, 4, 20, 4, fixed));
    v.us.push_back(bbp_oneway_us(s, 4, 20, 4, variable));
  }
  print_series(sizes, {f, v});

  Table t({"message bytes", "fixed-4B tput (MB/s)", "variable tput (MB/s)"});
  for (u32 s : {1024u, 16384u, 65536u}) {
    t.add_row({std::to_string(s),
               Table::num(bbp_throughput_mbps(s, 1u << 20, fixed)),
               Table::num(bbp_throughput_mbps(s, 1u << 20, variable))});
  }
  std::cout << '\n';
  t.print(std::cout);

  std::cout << "\nChecks:\n";
  check_shape("4-byte latency comparable in both modes (single word anyway)",
              std::abs(f.us[1] - v.us[1]) < 2.0);
  check_shape("variable mode wins decisively on large-message latency",
              v.us.back() < 0.6 * f.us.back());
  const double tf = bbp_throughput_mbps(65536, 1u << 20, fixed);
  const double tv = bbp_throughput_mbps(65536, 1u << 20, variable);
  check_shape("variable-mode throughput ~2.5x fixed mode (16.7 vs 6.5 MB/s)",
              tv / tf > 1.8 && tv / tf < 3.2);
  return 0;
}
