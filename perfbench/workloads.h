// Seeded workload generators for the simulator benchmark.
//
// A workload is an ordered list of Inputs, a pure function of (workload,
// seed). Each Input runs exactly one simulation through a public entry
// point of the simulator, checks its virtual-time results, and reports
// them so perfbench can digest them and compare repeats bit for bit.
//
// The order is the generator's, the same for every seed: allocator history
// moves set-up cost severalfold, so a seed-dependent order would make one
// seed's run incomparable with another's. The seed draws values inside
// narrow bands around each stratum's design point.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "probe.h"
#include "scramnet/config.h"

namespace perfbench {

/// Result of one simulation.
struct Outcome {
  SimTime makespan = 0;         // virtual time at the entry point's return
  std::vector<u64> results;     // virtual-time results, exact bit patterns
  std::string failure;          // first failed check; empty when all passed
  // fault_mix: the workload::Report accounting.
  bool has_report = false;
  u64 ops_ok = 0, ops_timeout = 0, ops_error = 0, aborted = 0;
  u64 faults_fired = 0;
  scrnet::LogHistogram latency_ns;
};

struct Input {
  std::string kind;   // stratum, e.g. "bbp_pingpong"
  std::string label;  // kind plus its drawn parameters
  std::function<Outcome(Phases&)> run;
  bool warm = false;  // the first input of its kind in generation order
};

/// Expected anchor cells, read from the repository's golden files.
struct Goldens {
  std::string fig1_bbp_4b;        // fig1_latency: BBP API 4-byte one-way (us)
  std::string fig1_mpi_4b;        // fig1_latency: MPI 4-byte one-way (us)
  std::string ring_variable;      // tbl_ring_throughput: raw variable-mode MB/s
  std::string ring_bbp_4096;      // tbl_ring_throughput: BBP 4096 B MB/s
  std::string abl_bcast_native8;  // abl_bcast: bbp, 8 nodes, 8 B, native (us)
  std::string flt_break_incast;   // flt_scenarios: [break_incast_bbp] render
};

/// Parse the anchors out of `dir` (bench/golden); throws on a missing cell.
Goldens load_goldens(const std::string& dir);

/// The workload's inputs in execution order; throws on an unknown name.
/// The anchors' lambdas keep a reference to `g`, which must outlive them.
std::vector<Input> make_inputs(const std::string& workload, u64 seed,
                               const Goldens& g);

/// Ring configuration the workload's SCRAMNet simulations use most, for the
/// stand-alone Ring construction probe.
scrnet::scramnet::RingConfig workload_ring(const std::string& workload);

}  // namespace perfbench
