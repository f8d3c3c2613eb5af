// Cluster harness: spin up an N-rank session (BBP or MPI) over any of the
// modeled fabrics inside one deterministic simulation. Used by tests,
// examples and every benchmark.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bbp/endpoint.h"
#include "fault/plan.h"
#include "netmodels/atm.h"
#include "netmodels/ethernet.h"
#include "netmodels/myrinet.h"
#include "netmodels/rdma.h"
#include "netmodels/tcp.h"
#include "scramnet/ring.h"
#include "scramnet/sim_port.h"
#include "scrmpi/ch_bbp.h"
#include "scrmpi/ch_hybrid.h"
#include "scrmpi/ch_rdma.h"
#include "scrmpi/ch_sock.h"
#include "scrmpi/mpi.h"
#include "sim/fn_ref.h"
#include "sim/simulation.h"

namespace scrnet::harness {

struct ScramnetOptions {
  scramnet::RingConfig ring;
  bbp::Config bbp;
  scrmpi::LayerCosts mpi;
  /// Optional fault plan, armed against the ring (and, for hybrid runs,
  /// the bulk fabric too) before any rank starts; per-node host dials are
  /// attached to every SimHostPort. Must outlive the run. An invalid plan
  /// (bad node index etc.) throws std::invalid_argument at startup.
  fault::FaultPlan* faults = nullptr;
};

/// Which baseline fabric to put under TCP (Figures 2/3/5/6 comparisons).
enum class TcpFabricKind { kFastEthernet, kAtm, kMyrinet };

inline std::string to_string(TcpFabricKind k) {
  switch (k) {
    case TcpFabricKind::kFastEthernet: return "FastEthernet";
    case TcpFabricKind::kAtm: return "ATM";
    case TcpFabricKind::kMyrinet: return "Myrinet";
  }
  return "?";
}

/// Options of the TCP and RDMA runs. The TCP stack is always
/// default_stack(kind), and the fabric is built with its defaults.
struct FabricOptions {
  // Per-byte channel costs are device-owned (SockChannel::pack_cost), so
  // the same LayerCosts work across devices.
  scrmpi::LayerCosts mpi;
  /// Optional fault plan, armed against the fabric before any rank starts
  /// (partitions, frame loss, congestion; for RDMA they apply to eager
  /// frames and put chunks alike; host dials do not apply). Must outlive
  /// the run; invalid plans throw at startup.
  fault::FaultPlan* faults = nullptr;
};

/// The one run path every harness entry point and bench simulation takes:
/// arm `plan` (may be null) against `ring` and `fabric` (either may be
/// null) before any rank starts, spawn `ranks` processes named
/// `<name><r>` that run `rank(p, r)`, run `sim`, and with counters on
/// publish what the ring, the fabric, the kernel and the plan counted into
/// sim.sink(). An invalid plan throws std::invalid_argument before any
/// process is spawned. Returns the final virtual time (picoseconds).
SimTime run_cluster(sim::Simulation& sim, u32 ranks, std::string_view name,
                    scramnet::Ring* ring, netmodels::Fabric* fabric,
                    fault::FaultPlan* plan,
                    sim::FnRef<void(sim::Process&, u32)> rank);

/// Run `body` on every rank of an N-node SCRAMNet cluster at the BBP level.
/// Returns the final virtual time (picoseconds).
SimTime run_scramnet_bbp(
    u32 nodes, const std::function<void(sim::Process&, bbp::Endpoint&)>& body,
    ScramnetOptions opts = {});

/// Run `body` on every rank of an N-node SCRAMNet cluster at the MPI level
/// (ch_bbp device).
SimTime run_scramnet_mpi(
    u32 nodes, const std::function<void(sim::Process&, scrmpi::Mpi&)>& body,
    ScramnetOptions opts = {});

/// Run `body` on every rank of an N-node TCP/IP cluster over the given
/// fabric at the MPI level (ch_sock device).
SimTime run_tcp_mpi(u32 nodes, TcpFabricKind kind,
                    const std::function<void(sim::Process&, scrmpi::Mpi&)>& body,
                    FabricOptions opts = {});

/// Run `body` on every rank of an N-node RDMA cluster (ch_rdma device over
/// netmodels::RdmaFabric): eager frames two-sided, rendezvous payloads
/// NIC-put directly into registered receive buffers.
SimTime run_rdma_mpi(u32 nodes,
                     const std::function<void(sim::Process&, scrmpi::Mpi&)>& body,
                     FabricOptions opts = {});

/// Run `body` on every rank of a *hybrid* cluster: every node sits on both
/// a SCRAMNet ring (latency) and a TCP fabric (bandwidth), glued by
/// scrmpi::HybridChannel with the given payload threshold. This is the
/// paper's Section 7 "SCRAMNet together with Myrinet/ATM" design. The
/// fault plan in `sopts` is armed against the ring and the bulk fabric,
/// which is built with its defaults.
SimTime run_hybrid_mpi(u32 nodes, TcpFabricKind bulk_kind, u32 threshold,
                       const std::function<void(sim::Process&, scrmpi::Mpi&)>& body,
                       ScramnetOptions sopts = {});

/// Default TCP stack parameters for a fabric kind.
netmodels::TcpConfig default_stack(TcpFabricKind kind);

/// Build the fabric for a kind (caller owns it through the returned ptr).
/// `ethernet` applies to Fast Ethernet only; ATM and Myrinet have no dials.
std::unique_ptr<netmodels::Fabric> make_fabric(sim::Simulation& sim, u32 nodes,
                                               TcpFabricKind kind,
                                               const netmodels::EthernetConfig& ethernet);

}  // namespace scrnet::harness
