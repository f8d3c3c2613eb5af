// The collective auto-tuner (ROADMAP item 4): sweep every algorithm over
// the (device, op, nodes, bytes) grid in measure.h, print the measurement
// matrix, and emit the first-match decision table that kAuto consults.
//
// The winning algorithm is the measured argmin per grid cell; adjacent
// cells with the same winner compress into one rule whose max_bytes /
// max_nodes threshold is the midpoint to the next grid coordinate. A
// legacy-default catch-all tail ("*" device rules) keeps devices outside
// the grid (hybrid, mocks) on their pre-tuner behavior.
//
// Usage:
//   tuner [--jobs N] [--cc FILE] [--quick]
//
// stdout carries the measurement matrix and then the table's text form
// (DecisionTable::serialize()); --cc writes the same rules as the Rule
// initializers DecisionTable::builtin() compiles in.
//
// --quick shrinks the grid to a 2x2 (sizes x nodes) corner -- enough for
// the CI determinism leg to race Runner orderings without paying for the
// full sweep.
//
// Output is bit-identical at any --jobs: each grid cell is one
// self-contained deterministic simulation and results are stored by
// element index (docs/sweep.md).
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.h"
#include "sweep/runner.h"
#include "tune/measure.h"
#include "tune/table.h"

using namespace scrnet;
using namespace scrnet::tune;

namespace {

/// Winner per (size index) for one (device, op, nodes) row group.
struct RowWinners {
  std::vector<std::string> algo;  // parallel to kSweepSizes (1 for barrier)
};

/// A rule limit as builtin_table.inc spells it.
std::string cc_limit(u32 v) {
  return v == kUnlimited ? "kUnlimited" : std::to_string(v);
}

/// Midpoint threshold between adjacent grid coordinates; "*" past the end.
u32 limit_after(const std::vector<u32>& grid, usize i) {
  if (i + 1 >= grid.size()) return kUnlimited;
  return (grid[i] + grid[i + 1]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  const sweep::Args args = sweep::parse_args(argc, argv, {"--cc FILE", "--quick"});
  sweep::Runner runner(args.jobs);
  const bool quick = args.has("--quick");
  const std::vector<u32> size_grid =
      quick ? std::vector<u32>{8, 4096} : kSweepSizes;
  const std::vector<u32> node_grid = quick ? std::vector<u32>{4, 8} : kSweepNodes;

  // ---- fan the full grid out ---------------------------------------------
  std::vector<MeasureSpec> specs;
  for (const std::string& dev : kSweepDevices)
    for (const std::string& op : kSweepOps)
      for (u32 nodes : node_grid)
        for (const std::string& algo : candidates(dev, op)) {
          if (op == "barrier") {
            specs.push_back({dev, op, algo, nodes, 0});
            continue;
          }
          for (u32 bytes : size_grid)
            specs.push_back({dev, op, algo, nodes, bytes});
        }

  const std::vector<double> us =
      runner.map("tune", specs, [](const MeasureSpec& s) {
        return measure_us(s);
      });

  // ---- print the measurement matrix --------------------------------------
  std::cout << "Collective auto-tuner: " << specs.size()
            << " measured cells over devices={bbp,sock,rdma}\n";
  Table t({"device", "op", "algo", "nodes", "bytes", "latency (us)"});
  for (usize i = 0; i < specs.size(); ++i) {
    const MeasureSpec& s = specs[i];
    t.add_row({s.device, s.op, s.algo, std::to_string(s.nodes),
               std::to_string(s.bytes), Table::num(us[i])});
  }
  t.print(std::cout);

  // ---- reduce to argmin winners per (device, op, nodes, size) ------------
  const auto latency_of = [&](const std::string& dev, const std::string& op,
                              const std::string& algo, u32 nodes, u32 bytes) {
    for (usize i = 0; i < specs.size(); ++i)
      if (specs[i].device == dev && specs[i].op == op &&
          specs[i].algo == algo && specs[i].nodes == nodes &&
          specs[i].bytes == bytes)
        return us[i];
    return -1.0;
  };

  DecisionTable table;
  for (const std::string& dev : kSweepDevices) {
    for (const std::string& op : kSweepOps) {
      const std::vector<u32> sizes =
          op == "barrier" ? std::vector<u32>{0} : size_grid;
      // Winners per node bucket.
      std::vector<RowWinners> winners(node_grid.size());
      for (usize ni = 0; ni < node_grid.size(); ++ni) {
        for (u32 bytes : sizes) {
          std::string best;
          double best_us = 0;
          for (const std::string& algo : candidates(dev, op)) {
            const double v = latency_of(dev, op, algo, node_grid[ni], bytes);
            if (best.empty() || v < best_us) {
              best = algo;
              best_us = v;
            }
          }
          winners[ni].algo.push_back(best);
        }
      }
      // Emit rules: per node bucket (merging identical adjacent buckets),
      // per size run of one winner.
      for (usize ni = 0; ni < node_grid.size(); ++ni) {
        usize nj = ni;
        while (nj + 1 < node_grid.size() &&
               winners[nj + 1].algo == winners[ni].algo)
          ++nj;
        const u32 max_nodes = limit_after(node_grid, nj);
        for (usize si = 0; si < sizes.size(); ++si) {
          usize sj = si;
          while (sj + 1 < sizes.size() &&
                 winners[ni].algo[sj + 1] == winners[ni].algo[si])
            ++sj;
          const u32 max_bytes =
              op == "barrier" ? kUnlimited : limit_after(size_grid, sj);
          table.add({dev, op, max_nodes, max_bytes, winners[ni].algo[si]});
          si = sj;
        }
        ni = nj;
      }
    }
  }
  // Legacy-default tail for devices outside the grid (hybrid, mocks):
  // exactly the pre-tuner kAuto behavior.
  table.add({"*", "bcast", kUnlimited, kUnlimited, "native"});
  table.add({"*", "barrier", kUnlimited, kUnlimited, "native"});
  table.add({"*", "allreduce", kUnlimited, kUnlimited, "reduce_bcast"});
  table.add({"*", "allgather", kUnlimited, kUnlimited, "gather_bcast"});

  std::cout << "\nDecision table (" << table.size() << " rules):\n"
            << table.serialize();

  if (const char* cc = args.value("--cc")) {
    std::ofstream f(cc);
    f << "// Generated by src/tune/tuner --cc; see docs/collectives.md for\n"
         "// the regeneration workflow. Rule initializers, included by\n"
         "// DecisionTable::builtin().\n";
    for (const Rule& r : table.rules())
      f << "{\"" << r.device << "\", \"" << r.op << "\", " << cc_limit(r.max_nodes)
        << ", " << cc_limit(r.max_bytes) << ", \"" << r.algo << "\"},\n";
    std::cout << "wrote " << cc << "\n";
  }
  return 0;
}
