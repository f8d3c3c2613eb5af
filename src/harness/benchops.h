// Benchmark operations: the paper's microbenchmarks (one-way latency via
// ping-pong, broadcast latency, barrier latency) measured in virtual time.
//
// Each call is one measurement in one self-contained simulation on the
// calling thread. A figure's series is a sweep::Runner::map over its x-axis
// with one of these per element (docs/sweep.md); each point is an
// independent deterministic simulation, so the series is bit-identical at
// any --jobs value.
#pragma once

#include <algorithm>

#include "harness/cluster.h"

namespace scrnet::harness {

/// Per-round clock: start stamped by rank 0, done max-accumulated across
/// ranks (all ranks are fibers of one simulation, so no data races).
struct RoundClock {
  std::vector<SimTime> start, done;
  explicit RoundClock(u32 rounds) : start(rounds, 0), done(rounds, 0) {}
  void record_done(u32 round, SimTime t) {
    done[round] = std::max(done[round], t);
  }
  double avg_us(u32 warmup) const {
    double sum = 0;
    for (usize i = warmup; i < start.size(); ++i)
      sum += to_us(done[i] - start[i]);
    return sum / static_cast<double>(start.size() - warmup);
  }
};

/// The paper's cluster size, and the timed rounds and untimed warm-up
/// rounds before them. Every driver below runs this many rounds; the three
/// API-level ping-pongs take other counts too.
inline constexpr u32 kNodes = 4;
inline constexpr u32 kIters = 20;
inline constexpr u32 kWarmup = 4;

/// Average one-way latency (us) of `bytes`-sized messages at the BBP API
/// level between ranks 0 and 1 of an `nodes`-node SCRAMNet cluster,
/// measured over `iters` ping-pong round trips after `warmup` rounds.
double bbp_oneway_us(u32 bytes, u32 nodes = kNodes, u32 iters = kIters,
                     u32 warmup = kWarmup, ScramnetOptions opts = {});

/// Same at the MPI layer over ch_bbp.
double mpi_scramnet_oneway_us(u32 bytes, u32 nodes = kNodes,
                              ScramnetOptions opts = {});

/// One-way latency (us) over a TCP/IP fabric at the sockets API level.
/// `ethernet` applies to Fast Ethernet only; `faults` (may be null) is
/// armed against the fabric.
double tcp_api_oneway_us(TcpFabricKind kind, u32 bytes, u32 iters = kIters,
                         u32 warmup = kWarmup,
                         const netmodels::EthernetConfig& ethernet = {},
                         fault::FaultPlan* faults = nullptr);

/// One-way latency (us) at the native Myrinet API level.
double myrinet_api_oneway_us(u32 bytes, u32 iters = kIters, u32 warmup = kWarmup);

/// One-way latency (us) at the MPI layer over ch_sock on a 2-node fabric.
double mpi_tcp_oneway_us(TcpFabricKind kind, u32 bytes);

/// One-way latency (us) at the MPI layer over ch_hybrid between the two
/// nodes of a SCRAMNet + Myrinet cluster split at `threshold` bytes.
double mpi_hybrid_oneway_us(u32 bytes, u32 threshold);

/// BBP-level broadcast latency (us): time from the root's send until the
/// *last* of the `nodes-1` receivers has the payload; averaged over the
/// timed rounds (receivers ack back a 0-byte message between rounds to
/// resynchronize).
double bbp_bcast_us(u32 bytes, u32 nodes = kNodes);

/// `kNodes`-node MPI_Bcast latency (us) with the given algorithm over SCRAMNet.
double mpi_scramnet_bcast_us(u32 bytes, scrmpi::CollAlgo algo);

/// `kNodes`-node MPI_Bcast latency (us) over a TCP fabric (always
/// point-to-point trees).
double mpi_tcp_bcast_us(TcpFabricKind kind, u32 bytes);

/// MPI_Barrier latency (us) over SCRAMNet with the given algorithm.
double mpi_scramnet_barrier_us(scrmpi::CollAlgo algo, u32 nodes);

/// MPI_Barrier latency (us) over a TCP fabric.
double mpi_tcp_barrier_us(TcpFabricKind kind, u32 nodes);

/// Sustained one-way throughput (MB/s) at the BBP level for a message size,
/// between two nodes of a `kNodes`-node ring.
double bbp_throughput_mbps(u32 bytes, u32 total_bytes, ScramnetOptions opts = {});

}  // namespace scrnet::harness
