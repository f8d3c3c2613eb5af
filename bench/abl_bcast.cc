// Ablation: the MPI_Bcast algorithm zoo across payload sizes and node
// counts (ROADMAP item 4).
//
// On SCRAMNet the paper's hardware-multicast bcast is a single ring
// transit, so the p2p zoo only matters as a fallback; on point-to-point
// fabrics the classic tradeoff appears: the binomial tree is
// latency-optimal (log2(n) rounds, every byte crosses log2(n)x), the van
// de Geijn scatter-allgather moves every byte ~2x and wins for long
// messages (arXiv cs/0408034), and the ring/pipelined-chain family
// (arXiv 1603.06809) trades latency linear in n for store-and-forward
// bandwidth.
//
// Every cell below is tune::measure_us -- the exact measurement the
// auto-tuner sweeps -- so the crossovers printed here and the switch
// points in the generated decision table (src/tune/builtin_table.inc)
// agree by construction; the final check verifies that cell by cell.
#include <iostream>
#include <map>

#include "bench_util.h"
#include "sweep/runner.h"
#include "tune/measure.h"
#include "tune/table.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::tune;

namespace {

double cell_us(const std::string& dev, u32 nodes, u32 bytes,
               const std::string& algo) {
  // Memoized: the final table-agreement check revisits cells the sweep
  // sections already measured (each cell is deterministic).
  static std::map<std::string, double> memo;
  const std::string key =
      dev + "/" + algo + "/" + std::to_string(nodes) + "/" + std::to_string(bytes);
  const auto it = memo.find(key);
  if (it != memo.end()) return it->second;
  MeasureSpec s;
  s.device = dev;
  s.op = "bcast";
  s.algo = algo;
  s.nodes = nodes;
  s.bytes = bytes;
  return memo[key] = measure_us(s);
}

/// One size-sweep section: a column per algorithm, a row per grid size.
/// Returns the per-algorithm series keyed in candidate order.
std::vector<std::vector<double>> size_section(const std::string& dev,
                                              u32 nodes) {
  const std::vector<std::string> algos = candidates(dev, "bcast");
  std::vector<std::string> cols{"payload (B)"};
  for (const std::string& a : algos) cols.push_back(a + " (us)");
  Table t(cols);
  std::vector<std::vector<double>> series(algos.size());
  for (u32 bytes : kSweepSizes) {
    std::vector<std::string> row{std::to_string(bytes)};
    for (usize ai = 0; ai < algos.size(); ++ai) {
      const double us = cell_us(dev, nodes, bytes, algos[ai]);
      series[ai].push_back(us);
      row.push_back(Table::num(us));
    }
    t.add_row(row);
  }
  t.print(std::cout);
  return series;
}

/// Node-sweep section at a fixed payload: winner changes across n expose
/// the node-dependent switch points in the decision table.
void node_section(const std::string& dev, u32 bytes) {
  const std::vector<std::string> algos = candidates(dev, "bcast");
  std::vector<std::string> cols{"nodes"};
  for (const std::string& a : algos) cols.push_back(a + " (us)");
  cols.push_back("winner");
  Table t(cols);
  for (u32 nodes : kSweepNodes) {
    std::vector<std::string> row{std::to_string(nodes)};
    std::string best;
    double best_us = 0;
    for (const std::string& a : algos) {
      const double us = cell_us(dev, nodes, bytes, a);
      row.push_back(Table::num(us));
      if (best.empty() || us < best_us) {
        best = a;
        best_us = us;
      }
    }
    row.push_back(best);
    t.add_row(row);
  }
  t.print(std::cout);
}

usize algo_index(const std::vector<std::string>& algos,
                 const std::string& name) {
  for (usize i = 0; i < algos.size(); ++i)
    if (algos[i] == name) return i;
  return algos.size();
}

}  // namespace

int main(int argc, char** argv) {
  sweep::parse_args(argc, argv);  // --jobs only, which a run without a sweep ignores
  header("Ablation: MPI_Bcast algorithm zoo",
         "binomial vs scatter-allgather vs ring/chain (cs/0408034 Fig. 1 "
         "shape); native multicast where the hardware has it");

  std::cout << "-- SCRAMNet (bbp), 8 nodes --\n";
  const auto bbp = size_section("bbp", 8);
  std::cout << "\n-- Fast Ethernet (sock), 8 nodes --\n";
  const auto sock = size_section("sock", 8);
  std::cout << "\n-- RDMA, 8 nodes --\n";
  const auto rdma = size_section("rdma", 8);

  std::cout << "\n-- winner vs node count, 65536 B payload --\n";
  std::cout << "Fast Ethernet (sock):\n";
  node_section("sock", 65536);
  std::cout << "SCRAMNet (bbp):\n";
  node_section("bbp", 65536);

  std::cout << "\nChecks:\n";
  const std::vector<std::string> bbp_algos = candidates("bbp", "bcast");
  const std::vector<std::string> p2p_algos = candidates("sock", "bcast");
  const usize bin = algo_index(p2p_algos, "binomial");
  const usize sag = algo_index(p2p_algos, "scatter_allgather");
  const usize ring = algo_index(p2p_algos, "ring");
  const usize chain = algo_index(p2p_algos, "chain");

  check_shape("bbp: native multicast wins at every measured size",
              [&] {
                const usize nat = algo_index(bbp_algos, "native");
                for (usize si = 0; si < kSweepSizes.size(); ++si)
                  for (usize ai = 0; ai < bbp_algos.size(); ++ai)
                    if (bbp[ai][si] < bbp[nat][si]) return false;
                return true;
              }());
  check_shape("sock: binomial beats ring relay at 8 B (latency regime)",
              sock[bin][0] < sock[ring][0]);
  check_shape("sock: chain pipelining beats the unsegmented ring at 64 KiB",
              sock[chain].back() < sock[ring].back());
  // The size-dependent switch the decision table encodes on p2p fabrics.
  report_crossover("sock: binomial -> scatter-allgather (bcast)",
                   crossover({kSweepSizes.begin(), kSweepSizes.end()},
                             sock[bin], sock[sag]),
                   256, 65536);
  // On the high-bandwidth fabric the extra scatter/allgather phases never
  // pay off inside the swept range -- binomial stays the argmin, which is
  // exactly what the tuner writes into the table (rdma bcast * * binomial).
  check_shape("rdma: binomial wins at every measured size (bandwidth regime)",
              [&] {
                for (usize si = 0; si < kSweepSizes.size(); ++si)
                  for (usize ai = 0; ai < p2p_algos.size(); ++ai)
                    if (rdma[ai][si] < rdma[bin][si]) return false;
                return true;
              }());

  // The compiled-in decision table must pick the measured argmin at every
  // grid point: the tuner sweeps these exact cells, so any disagreement
  // means builtin_table.inc is stale (regenerate: tuner --cc, see
  // docs/collectives.md).
  const tune::DecisionTable& table = tune::DecisionTable::builtin();
  std::vector<std::pair<std::string, std::pair<u32, u32>>> points;
  for (const std::string& dev : kSweepDevices)
    for (u32 bytes : kSweepSizes) points.push_back({dev, {8, bytes}});
  for (const std::string& dev : {std::string("sock"), std::string("bbp")})
    for (u32 nodes : kSweepNodes) points.push_back({dev, {nodes, 65536}});
  u32 cells = 0, agree = 0;
  for (const auto& [dev, nb] : points) {
    const auto [nodes, bytes] = nb;
    std::string best;
    double best_us = 0;
    for (const std::string& a : candidates(dev, "bcast")) {
      const double us = cell_us(dev, nodes, bytes, a);
      if (best.empty() || us < best_us) {
        best = a;
        best_us = us;
      }
    }
    ++cells;
    if (table.pick(dev, "bcast", nodes, bytes) == best)
      ++agree;
    else
      std::cout << "  [DEV] table pick mismatch at " << dev << " n=" << nodes
                << " b=" << bytes << ": table="
                << table.pick(dev, "bcast", nodes, bytes) << " measured="
                << best << "\n";
  }
  check_shape("decision table picks the measured argmin at all " +
                  std::to_string(cells) + " measured bcast grid points",
              agree == cells);
  return 0;
}
