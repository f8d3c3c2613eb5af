// Section 2 specification table: SCRAMNet ring throughput in fixed 4-byte
// packet mode (6.5 MB/s max) and variable-length packet mode (16.7 MB/s
// max), plus the BBP-level throughput the protocol achieves on top.
#include <iostream>

#include "bench_util.h"
#include "harness/benchops.h"
#include "scramnet/ring.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::harness;

namespace {

/// Raw ring throughput: stream `bytes` from one node with an instant host.
double raw_ring_mbps(scramnet::PacketMode mode, u32 bytes) {
  sim::Simulation sim;
  scramnet::RingConfig cfg;
  cfg.mode = mode;
  cfg.bank_words = 1u << 20;
  scramnet::Ring ring(sim, cfg);
  std::vector<u32> words(bytes / 4, 0x5A);
  ring.host_write_block(0, 0, words, 0);
  harness::run_cluster(sim, 0, "host", &ring, nullptr, nullptr,
                       [](sim::Process&, u32) {});
  return static_cast<double>(bytes) / 1e6 /
         (static_cast<double>(sim.now()) / 1e12);
}

}  // namespace

int main(int argc, char** argv) {
  sweep::Runner runner(sweep::parse_args(argc, argv).jobs);

  header("Table: SCRAMNet ring throughput (Section 2 specifications)",
         "Moorthy et al., IPPS 1999, Section 2");

  const std::vector<scramnet::PacketMode> modes{
      scramnet::PacketMode::kFixed4, scramnet::PacketMode::kVariable};
  const std::vector<double> raw =
      runner.map("raw_ring", modes, [](scramnet::PacketMode m) {
        return raw_ring_mbps(m, 1u << 20);
      });
  const double fixed = raw[0];
  const double variable = raw[1];
  const std::vector<u32> sizes{64, 256, 1024, 4096, 16384, 65536};
  const std::vector<double> bbp = runner.map("bbp_throughput", sizes, [](u32 b) {
    return bbp_throughput_mbps(b, 1u << 20);
  });

  Table t({"mode", "paper max (MB/s)", "measured (MB/s)"});
  t.add_row({"fixed 4-byte packets", "6.5", Table::num(fixed)});
  t.add_row({"variable packets (<=1KB)", "16.7", Table::num(variable)});
  t.print(std::cout);

  std::cout << "\nBBP end-to-end throughput (variable mode, incl. protocol):\n";
  Table t2({"message bytes", "BBP throughput (MB/s)"});
  for (usize i = 0; i < sizes.size(); ++i)
    t2.add_row({std::to_string(sizes[i]), Table::num(bbp[i])});
  t2.print(std::cout);

  std::cout << "\nChecks:\n";
  check("fixed-mode ring throughput (MB/s)", 6.5, fixed, 0.05);
  check("variable-mode ring throughput (MB/s)", 16.7, variable, 0.05);
  check_shape("BBP throughput approaches the ring limit for large messages",
              bbp.back() > 10.0);
  return 0;
}
