// Synthetic traffic generator for fault scenarios and tail-latency studies.
//
// A Spec describes one run: a traffic pattern (RPC client/server, incast,
// hot-spot, all-to-all), a channel device (BBP, sockets, hybrid), node
// count, message shape, a seed, bounded-wait timeouts, and an optional
// fault::FaultPlan that is copied into the run and armed against its
// private simulation. run() executes the pattern over the harness at the
// MPI level, collects every completed operation's latency into a
// log-bucketed histogram (common/stats.h) and returns a Report whose
// render() is a pure function of the Spec -- byte-identical across
// --jobs values and host schedules, which is what the golden files and
// the determinism tests compare.
//
// Degraded-mode semantics: with Spec::op_timeout set, blocking sends and
// receives return kTimedOut instead of hanging when a fault makes
// delivery impossible. A sender abandons its remaining operations after
// two consecutive post-retry failures; a receiver after three
// consecutive idle timeouts -- so a partitioned run terminates with
// counted timeouts rather than a deadlock (docs/faults.md).
#pragma once

#include <array>
#include <string>
#include <string_view>

#include "common/stats.h"
#include "common/types.h"
#include "common/units.h"
#include "fault/plan.h"
#include "harness/cluster.h"

namespace scrnet::workload {

enum class Pattern : u8 {
  kRpc,       // ranks [0, n/2) are clients of ranks [n/2, n); round trips
  kIncast,    // every rank != 0 sends all its ops to rank 0
  kHotspot,   // seeded destinations, biased toward rank 0
  kAllToAll,  // round-robin destinations over all peers
};

enum class Device : u8 { kBbp, kSock, kHybrid };

constexpr std::string_view to_string(Pattern p) {
  switch (p) {
    case Pattern::kRpc: return "rpc";
    case Pattern::kIncast: return "incast";
    case Pattern::kHotspot: return "hotspot";
    case Pattern::kAllToAll: return "alltoall";
  }
  return "?";
}

constexpr std::string_view to_string(Device d) {
  switch (d) {
    case Device::kBbp: return "bbp";
    case Device::kSock: return "sock";
    case Device::kHybrid: return "hybrid";
  }
  return "?";
}

struct Spec {
  std::string name;  // report label
  Pattern pattern = Pattern::kIncast;
  Device device = Device::kBbp;
  // Bulk fabric for kSock and kHybrid runs.
  harness::TcpFabricKind fabric = harness::TcpFabricKind::kMyrinet;
  u32 nodes = 8;
  u32 ops = 24;        // operations per sender (per client for kRpc)
  u32 msg_bytes = 64;  // request payload (floored at 8 for the timestamp)
  u64 seed = 1;
  u32 bbp_slots = 16;
  bool redundant_ring = false;  // SCRAMNet redundant-ring switchover
  // Bounded wait applied to the BBP endpoint (poll_timeout) and the ADI
  // (op_timeout). 0 = block forever: the paper's clean-run semantics.
  SimTime op_timeout = 0;
  u32 retries = 0;  // immediate resends after a send timeout
  // Copied and armed per run; empty = no injection.
  fault::FaultPlan faults;
};

struct Report {
  /// Per-operation latency in nanoseconds: round-trip at the client for
  /// kRpc, one-way (embedded virtual send timestamp) at the receiver for
  /// the other patterns.
  LogHistogram latency;
  u64 ops_ok = 0;       // operations completed end to end
  u64 ops_timeout = 0;  // blocking calls that returned kTimedOut
  u64 ops_error = 0;    // other non-OK completions
  u64 retried = 0;      // send retries consumed
  u64 aborted = 0;      // operations abandoned by the degraded-mode policy
  /// Operations completed at each rank (receives; client round trips).
  std::vector<u64> node_ops;
  /// Injection counts from the run's armed plan, indexed by FaultKind.
  std::array<u64, static_cast<u32>(fault::FaultKind::kCount)> fault_fired{};
  SimTime makespan = 0;  // final virtual time of the run

  /// Deterministic (integer-only) text form; what goldens compare.
  std::string render(const Spec& spec) const;
};

/// Execute one spec in its own simulation. Safe to call from sweep jobs:
/// the run shares no mutable state with its siblings.
Report run(Spec spec);

}  // namespace scrnet::workload
