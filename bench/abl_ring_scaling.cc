// Ablation: scaling with ring size (2-16 nodes). The paper's testbed stops
// at 4 nodes; Section 2 argues the single-step multicast should keep
// broadcast near-flat while point-to-point trees grow with log2(N) rounds.
//
// `abl_ring_scaling --large` extends the sweep with N=64 and N=256 rows
// (the DestSet-era world sizes; 256 is the flat ring's architectural max).
// The large rows are opt-in so the default output stays byte-identical to
// the committed golden; CI diffs the --large output against its own golden,
// bench/golden/abl_ring_scaling_large.txt, which repro_all does not rewrite.
#include <iostream>

#include "bench_util.h"
#include "harness/benchops.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::harness;

int main(int argc, char** argv) {
  const bool large = sweep::parse_args(argc, argv, {"--large"}).has("--large");
  header("Ablation: ring size scaling (2-16 nodes)",
         "extrapolates the paper's 4-node testbed per its Section 2 claims");

  Table t({"nodes", "BBP p2p (us)", "BBP bcast (us)", "MPI barrier API (us)",
           "MPI barrier p2p (us)"});
  struct Row {
    u32 n;
    double p2p, bcast, bar_api, bar_p2p;
  };
  std::vector<Row> rows;
  std::vector<u32> sizes{2u, 4u, 8u, 16u};
  if (large) {
    sizes.push_back(64u);
    sizes.push_back(256u);
  }
  for (u32 n : sizes) {
    Row r{n, bbp_oneway_us(4, n),
          n >= 2 ? bbp_bcast_us(4, n) : 0.0,
          mpi_scramnet_barrier_us(scrmpi::CollAlgo::kNativeMcast, n),
          mpi_scramnet_barrier_us(scrmpi::CollAlgo::kPointToPoint, n)};
    rows.push_back(r);
    t.add_row({std::to_string(n), Table::num(r.p2p), Table::num(r.bcast),
               Table::num(r.bar_api), Table::num(r.bar_p2p)});
  }
  t.print(std::cout);

  // Shape checks judge the paper-scale sweep (N <= 16); the --large rows
  // are a scaling smoke point, printed above and spot-checked below.
  const Row& r16 = rows[3];
  std::cout << "\nChecks:\n";
  check_shape("p2p latency nearly independent of ring size (bounded hops)",
              r16.p2p < rows.front().p2p + 6.0);
  check_shape("single-step bcast grows only mildly with node count",
              r16.bcast < 3.0 * rows[1].bcast);
  check_shape("API barrier stays well below the p2p tree at every size",
              [&] {
                for (const Row& r : rows)
                  if (r.n <= 16 && r.bar_api >= r.bar_p2p) return false;
                return true;
              }());
  if (large) {
    // Broadcast completion is one serialization plus N-1 ring hops, so the
    // per-hop slope must stay flat as N grows (linear completion, not
    // log-tree or quadratic growth). Compare the 16->64 and 64->256
    // segment slopes with 1.5x headroom.
    const double slope_mid = (rows[4].bcast - r16.bcast) / (64 - 16);
    const double slope_big = (rows[5].bcast - rows[4].bcast) / (256 - 64);
    check_shape("bcast per-hop slope stays flat out to N=256",
                slope_big < 1.5 * slope_mid);
  }
  // The flip side of the paper's design: the mcast barrier's *release* is
  // single-step, but its gather is a linear coordinator, so it must grow
  // faster than the log2 tree as N rises -- the mcast advantage is a
  // small-cluster property. Quantify the erosion:
  const double adv4 = rows[1].bar_p2p / rows[1].bar_api;
  const double adv16 = r16.bar_p2p / r16.bar_api;
  std::cout << "  p2p/API barrier advantage: " << Table::num(adv4) << "x at 4 nodes, "
            << Table::num(adv16) << "x at 16 nodes\n";
  check_shape("linear coordinator erodes the mcast advantage as N grows",
              adv16 < adv4);
  return 0;
}
