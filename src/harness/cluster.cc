#include "harness/cluster.h"

#include <stdexcept>
#include <string>

#include "obs/counters.h"
#include "obs/sink.h"

namespace scrnet::harness {

namespace {
/// Arm an optional fault plan before any rank runs. Plans are validated
/// against the topology; a bad plan is a caller bug, surfaced as an
/// exception at startup rather than a silent no-op mid-run.
void arm_faults(fault::FaultPlan* plan, sim::Simulation& sim,
                scramnet::Ring* ring, netmodels::Fabric* fabric = nullptr) {
  if (!plan) return;
  const Status st = plan->arm(sim, ring, fabric);
  if (!st.ok()) throw std::invalid_argument("fault plan: " + st.to_string());
}

void publish_faults(const fault::FaultPlan* plan, const sim::Simulation& sim) {
  if (!plan || !obs::Counters::enabled()) return;
  plan->publish_counters(sim.sink().counters());
}

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

void publish_fabric(const netmodels::Fabric& fab, const sim::Simulation& sim) {
  if (!obs::Counters::enabled()) return;
  obs::Counters& c = sim.sink().counters();
  c.add("net", "frames_delivered", fab.frames_delivered());
  c.add("net", "bytes_delivered", fab.bytes_delivered());
  c.add("net", "frames_dropped", fab.frames_dropped());
}

void publish_run(const sim::Simulation& sim) {
  if (!obs::Counters::enabled()) return;
  obs::Counters& c = sim.sink().counters();
  c.add("sim", "events_executed", sim.events_executed());
  c.add("sim", "resumes_in_place", sim.resumes_in_place());
  c.add("sim", "spin_resumes", sim.spin_resumes());
}

void publish_run(const scramnet::Ring& ring, const sim::Simulation& sim) {
  if (!obs::Counters::enabled()) return;
  ring.publish_counters(sim.sink().counters(), "ring");
  publish_run(sim);
}
}  // namespace

SimTime run_scramnet_bbp(
    u32 nodes, const std::function<void(sim::Process&, bbp::Endpoint&)>& body,
    ScramnetOptions opts) {
  sim::Simulation sim;
  opts.ring.nodes = nodes;
  scramnet::Ring ring(sim, opts.ring);
  arm_faults(opts.faults, sim, &ring);
  for (u32 r = 0; r < nodes; ++r) {
    sim.spawn("bbp-rank" + std::to_string(r), [&, r](sim::Process& p) {
      scramnet::SimHostPort port(ring, r, p);
      if (opts.faults) port.set_dials(opts.faults->dials(r));
      bbp::Endpoint ep(port, nodes, r, opts.bbp);
      body(p, ep);
      publish_rank(sim, ep);
    });
  }
  sim.run();
  publish_run(ring, sim);
  publish_faults(opts.faults, sim);
  return sim.now();
}

SimTime run_scramnet_mpi(
    u32 nodes, const std::function<void(sim::Process&, scrmpi::Mpi&)>& body,
    ScramnetOptions opts) {
  sim::Simulation sim;
  opts.ring.nodes = nodes;
  scramnet::Ring ring(sim, opts.ring);
  arm_faults(opts.faults, sim, &ring);
  for (u32 r = 0; r < nodes; ++r) {
    sim.spawn("mpi-rank" + std::to_string(r), [&, r](sim::Process& p) {
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
  sim.run();
  publish_run(ring, sim);
  publish_faults(opts.faults, sim);
  return sim.now();
}

SimTime run_hybrid_mpi(u32 nodes, TcpFabricKind bulk_kind, u32 threshold,
                       const std::function<void(sim::Process&, scrmpi::Mpi&)>& body,
                       ScramnetOptions sopts, TcpOptions topts) {
  sim::Simulation sim;
  sopts.ring.nodes = nodes;
  scramnet::Ring ring(sim, sopts.ring);
  auto fabric = make_fabric(sim, nodes, bulk_kind, topts);
  arm_faults(sopts.faults, sim, &ring, fabric.get());
  const netmodels::TcpConfig stack_cfg = default_stack(bulk_kind);
  for (u32 r = 0; r < nodes; ++r) {
    sim.spawn("hybrid-rank" + std::to_string(r), [&, r, stack_cfg](sim::Process& p) {
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
  sim.run();
  publish_run(ring, sim);
  publish_fabric(*fabric, sim);
  publish_faults(sopts.faults, sim);
  return sim.now();
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
                                               const TcpOptions& opts) {
  switch (kind) {
    case TcpFabricKind::kFastEthernet:
      return std::make_unique<netmodels::EthernetFabric>(sim, nodes, opts.ethernet);
    case TcpFabricKind::kAtm:
      return std::make_unique<netmodels::AtmFabric>(sim, nodes);
    case TcpFabricKind::kMyrinet:
      return std::make_unique<netmodels::MyrinetFabric>(sim, nodes);
  }
  return nullptr;
}

SimTime run_rdma_mpi(u32 nodes,
                     const std::function<void(sim::Process&, scrmpi::Mpi&)>& body,
                     RdmaOptions opts) {
  sim::Simulation sim;
  netmodels::RdmaFabric fabric(sim, nodes);
  arm_faults(opts.faults, sim, /*ring=*/nullptr, &fabric);
  for (u32 r = 0; r < nodes; ++r) {
    sim.spawn("rdma-rank" + std::to_string(r), [&, r](sim::Process& p) {
      scrmpi::RdmaChannel dev(fabric, p, r, nodes);
      scrmpi::Mpi mpi(dev, opts.mpi);
      body(p, mpi);
      publish_rank(sim, mpi, r);
    });
  }
  sim.run();
  publish_run(sim);
  publish_fabric(fabric, sim);
  publish_faults(opts.faults, sim);
  return sim.now();
}

SimTime run_tcp_mpi(u32 nodes, TcpFabricKind kind,
                    const std::function<void(sim::Process&, scrmpi::Mpi&)>& body,
                    TcpOptions opts) {
  sim::Simulation sim;
  auto fabric = make_fabric(sim, nodes, kind, opts);
  arm_faults(opts.faults, sim, /*ring=*/nullptr, fabric.get());
  const netmodels::TcpConfig stack_cfg = default_stack(kind);
  for (u32 r = 0; r < nodes; ++r) {
    sim.spawn("mpi-" + to_string(kind) + "-rank" + std::to_string(r),
              [&, r, stack_cfg](sim::Process& p) {
                netmodels::TcpStack stack(*fabric, r, stack_cfg);
                scrmpi::SockChannel dev(stack, p, nodes);
                scrmpi::Mpi mpi(dev, opts.mpi);
                body(p, mpi);
                publish_rank(sim, mpi, r);
              });
  }
  sim.run();
  publish_run(sim);
  publish_fabric(*fabric, sim);
  publish_faults(opts.faults, sim);
  return sim.now();
}

}  // namespace scrnet::harness
