#include "harness/cluster.h"

#include <stdexcept>
#include <string>

#include "obs/counters.h"
#include "obs/sink.h"

namespace scrnet::harness {

namespace {
/// Per-rank stats flow into the registry only when someone armed it
/// (SCRNET_COUNTERS or an explicit enable); otherwise zero work. Stats go
/// to the *simulation's* sink, not the process singleton, so concurrent
/// sweep runs cannot mix their counters (obs/sink.h).
void publish_rank(const sim::Simulation& sim, const bbp::Endpoint& ep) {
  if (!obs::Counters::enabled()) return;
  ep.publish_counters(sim.sink().counters(),
                      "bbp.rank" + std::to_string(ep.rank()));
}

void publish_rank(const sim::Simulation& sim, const scrmpi::Mpi& mpi, u32 r) {
  if (!obs::Counters::enabled()) return;
  mpi.publish_counters(sim.sink().counters(), "mpi.rank" + std::to_string(r));
}
}  // namespace

SimTime run_cluster(sim::Simulation& sim, u32 ranks, std::string_view name,
                    scramnet::Ring* ring, netmodels::Fabric* fabric,
                    fault::FaultPlan* plan,
                    sim::FnRef<void(sim::Process&, u32)> rank) {
  // A bad plan is a caller bug, surfaced at startup rather than as a
  // silent no-op mid-run.
  if (plan) {
    const Status st = plan->arm(sim, ring, fabric);
    if (!st.ok()) throw std::invalid_argument("fault plan: " + st.to_string());
  }
  for (u32 r = 0; r < ranks; ++r)
    sim.spawn(std::string(name).append(std::to_string(r)),
              [rank, r](sim::Process& p) { rank(p, r); });
  sim.run();
  if (obs::Counters::enabled()) {
    obs::Counters& c = sim.sink().counters();
    if (ring) ring->publish_counters(c, "ring");
    if (fabric) {
      c.add("net", "frames_delivered", fabric->frames_delivered());
      c.add("net", "bytes_delivered", fabric->bytes_delivered());
      c.add("net", "frames_dropped", fabric->frames_dropped());
    }
    c.add("sim", "events_executed", sim.events_executed());
    c.add("sim", "resumes_in_place", sim.resumes_in_place());
    c.add("sim", "spin_resumes", sim.spin_resumes());
    if (plan) plan->publish_counters(c);
  }
  return sim.now();
}

SimTime run_scramnet_bbp(
    u32 nodes, const std::function<void(sim::Process&, bbp::Endpoint&)>& body,
    ScramnetOptions opts) {
  sim::Simulation sim;
  opts.ring.nodes = nodes;
  scramnet::Ring ring(sim, opts.ring);
  return run_cluster(sim, nodes, "bbp-rank", &ring, nullptr, opts.faults,
                     [&](sim::Process& p, u32 r) {
                       scramnet::SimHostPort port(ring, r, p);
                       if (opts.faults) port.set_dials(opts.faults->dials(r));
                       bbp::Endpoint ep(port, nodes, r, opts.bbp);
                       body(p, ep);
                       publish_rank(sim, ep);
                     });
}

SimTime run_scramnet_mpi(
    u32 nodes, const std::function<void(sim::Process&, scrmpi::Mpi&)>& body,
    ScramnetOptions opts) {
  sim::Simulation sim;
  opts.ring.nodes = nodes;
  scramnet::Ring ring(sim, opts.ring);
  return run_cluster(sim, nodes, "mpi-rank", &ring, nullptr, opts.faults,
                     [&](sim::Process& p, u32 r) {
                       scramnet::SimHostPort port(ring, r, p);
                       if (opts.faults) port.set_dials(opts.faults->dials(r));
                       bbp::Endpoint ep(port, nodes, r, opts.bbp);
                       scrmpi::BbpChannel dev(ep);
                       scrmpi::Mpi mpi(dev, opts.mpi);
                       body(p, mpi);
                       publish_rank(sim, ep);
                       publish_rank(sim, mpi, r);
                     });
}

SimTime run_hybrid_mpi(u32 nodes, TcpFabricKind bulk_kind, u32 threshold,
                       const std::function<void(sim::Process&, scrmpi::Mpi&)>& body,
                       ScramnetOptions sopts) {
  sim::Simulation sim;
  sopts.ring.nodes = nodes;
  scramnet::Ring ring(sim, sopts.ring);
  auto fabric = make_fabric(sim, nodes, bulk_kind, {});
  const netmodels::TcpConfig stack_cfg = default_stack(bulk_kind);
  return run_cluster(sim, nodes, "hybrid-rank", &ring, fabric.get(), sopts.faults,
                     [&](sim::Process& p, u32 r) {
                       scramnet::SimHostPort port(ring, r, p);
                       if (sopts.faults) port.set_dials(sopts.faults->dials(r));
                       bbp::Endpoint ep(port, nodes, r, sopts.bbp);
                       scrmpi::BbpChannel low(ep);
                       netmodels::TcpStack stack(*fabric, r, stack_cfg);
                       scrmpi::SockChannel high(stack, p, nodes);
                       scrmpi::HybridChannel dev(low, high, threshold);
                       scrmpi::Mpi mpi(dev, sopts.mpi);
                       body(p, mpi);
                       publish_rank(sim, ep);
                       publish_rank(sim, mpi, r);
                     });
}

netmodels::TcpConfig default_stack(TcpFabricKind kind) {
  switch (kind) {
    case TcpFabricKind::kFastEthernet: return netmodels::TcpConfig::fast_ethernet();
    case TcpFabricKind::kAtm: return netmodels::TcpConfig::atm();
    case TcpFabricKind::kMyrinet: return netmodels::TcpConfig::myrinet();
  }
  return {};
}

std::unique_ptr<netmodels::Fabric> make_fabric(sim::Simulation& sim, u32 nodes,
                                               TcpFabricKind kind,
                                               const netmodels::EthernetConfig& ethernet) {
  switch (kind) {
    case TcpFabricKind::kFastEthernet:
      return std::make_unique<netmodels::EthernetFabric>(sim, nodes, ethernet);
    case TcpFabricKind::kAtm:
      return std::make_unique<netmodels::AtmFabric>(sim, nodes);
    case TcpFabricKind::kMyrinet:
      return std::make_unique<netmodels::MyrinetFabric>(sim, nodes);
  }
  return nullptr;
}

SimTime run_rdma_mpi(u32 nodes,
                     const std::function<void(sim::Process&, scrmpi::Mpi&)>& body,
                     FabricOptions opts) {
  sim::Simulation sim;
  netmodels::RdmaFabric fabric(sim, nodes);
  return run_cluster(sim, nodes, "rdma-rank", nullptr, &fabric, opts.faults,
                     [&](sim::Process& p, u32 r) {
                       scrmpi::RdmaChannel dev(fabric, p, r, nodes);
                       scrmpi::Mpi mpi(dev, opts.mpi);
                       body(p, mpi);
                       publish_rank(sim, mpi, r);
                     });
}

SimTime run_tcp_mpi(u32 nodes, TcpFabricKind kind,
                    const std::function<void(sim::Process&, scrmpi::Mpi&)>& body,
                    FabricOptions opts) {
  sim::Simulation sim;
  auto fabric = make_fabric(sim, nodes, kind, {});
  const netmodels::TcpConfig stack_cfg = default_stack(kind);
  return run_cluster(sim, nodes, "mpi-" + to_string(kind) + "-rank", nullptr,
                     fabric.get(), opts.faults, [&](sim::Process& p, u32 r) {
                       netmodels::TcpStack stack(*fabric, r, stack_cfg);
                       scrmpi::SockChannel dev(stack, p, nodes);
                       scrmpi::Mpi mpi(dev, opts.mpi);
                       body(p, mpi);
                       publish_rank(sim, mpi, r);
                     });
}

}  // namespace scrnet::harness
