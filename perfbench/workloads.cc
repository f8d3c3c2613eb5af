#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/table.h"
#include "harness/cluster.h"
#include "obs/sink.h"
#include "scrmpi/coll.h"
#include "tune/measure.h"
#include "workload/workload.h"

namespace perfbench {

namespace {

using namespace scrnet;
using harness::TcpFabricKind;
using scramnet::PacketMode;
using scrmpi::Datatype;

constexpr std::array<TcpFabricKind, 3> kFabrics{
    TcpFabricKind::kFastEthernet, TcpFabricKind::kAtm, TcpFabricKind::kMyrinet};

u64 bits(double v) {
  u64 b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void require(Outcome& o, bool cond, const std::string& what) {
  if (!cond && o.failure.empty()) o.failure = what;
}

/// Compare a measured value, printed the way the figure benches print it,
/// against its golden cell.
void require_anchor(Outcome& o, double v, const std::string& golden,
                    const std::string& what) {
  const std::string got = Table::num(v);
  require(o, got == golden, what + ": measured " + got + ", golden " + golden);
}

// -- model lower bounds and ceilings ------------------------------------------

double fabric_mbits(TcpFabricKind k) {
  switch (k) {
    case TcpFabricKind::kFastEthernet: return netmodels::EthernetConfig{}.mbits_per_s;
    case TcpFabricKind::kAtm: return netmodels::AtmConfig{}.mbits_per_s;
    case TcpFabricKind::kMyrinet: return netmodels::MyrinetConfig{}.mbits_per_s;
  }
  return 0;
}

/// Serialization floor (us) of `bytes` at `mbits` Mb/s.
double wire_us(u32 bytes, double mbits) { return bytes * 8.0 / mbits; }

/// One-way floor on the ring: one hop plus serialization at the peak rate.
double ring_floor_us(u32 bytes) {
  const scramnet::RingConfig rc;
  return to_us(rc.hop_latency) + wire_us(bytes, rc.variable_mbps * 8.0);
}

double ring_ceiling_mbps(PacketMode m) {
  const scramnet::RingConfig rc;
  return m == PacketMode::kFixed4 ? rc.fixed_mbps : rc.variable_mbps;
}

/// Sanity bound on any latency a cell reports: finite and positive.
bool plausible(double us) { return us > 0.0 && us < 1e9; }

// -- the simulations ----------------------------------------------------------

struct PingPong {
  SimTime t0 = 0, t1 = 0;
  bool payload_ok = true;
  double oneway_us(u32 iters) const { return to_us(t1 - t0) / (2.0 * iters); }
};

/// Timed rounds after warm-up rounds. Anchors use the figure benches'
/// 20 + 4; the seeded paper_figs cells are short simulations.
struct Rounds {
  u32 iters, warmup;
};
constexpr Rounds kFigure{20, 4}, kShort{4, 1};
constexpr u32 kBankWords = scramnet::RingConfig{}.bank_words;
constexpr u32 kStreamBankWords = 1u << 18;

/// BBP API ping-pong between ranks 0 and 1 of a 4-node ring (Figure 1).
Outcome bbp_pingpong(Phases& ph, Rounds r, u32 bytes, const std::string* golden) {
  constexpr u32 kNodes = 4;
  PingPong pp;
  ph.begin(kNodes);
  const SimTime end = harness::run_scramnet_bbp(
      kNodes, [&](sim::Process& p, bbp::Endpoint& ep) {
        Phases::Rank rank(ph, p);
        if (ep.rank() > 1) return;
        std::vector<u8> msg(bytes), buf(std::max<u32>(bytes, 4));
        fill_pattern(msg, 1);
        const u32 peer = 1 - ep.rank();
        for (u32 i = 0; i < r.warmup + r.iters; ++i) {
          if (ep.rank() == 0) {
            if (i == r.warmup) pp.t0 = p.now();
            (void)traced("bbp.send", p, [&] { return ep.send(peer, msg); });
            (void)traced("bbp.recv", p, [&] { return ep.recv(peer, buf); });
            if (i == r.warmup + r.iters - 1) pp.t1 = p.now();
          } else {
            (void)traced("bbp.recv", p, [&] { return ep.recv(peer, buf); });
            (void)traced("bbp.send", p, [&] { return ep.send(peer, msg); });
          }
        }
        if (!check_pattern(std::span<const u8>(buf.data(), bytes), 1))
          pp.payload_ok = false;
        (void)ep.drain();
      });
  ph.end(end);
  Outcome o;
  o.makespan = end;
  const double us = pp.oneway_us(r.iters);
  o.results = {bits(us)};
  require(o, pp.payload_ok, "bbp ping-pong payload corrupted");
  require(o, us >= ring_floor_us(bytes), "bbp one-way below the ring floor");
  if (golden) require_anchor(o, us, *golden, "fig1 BBP 4 B");
  return o;
}

using MpiBody = std::function<void(sim::Process&, scrmpi::Mpi&)>;

/// MPI ping-pong between ranks 0 and 1 through `run` (Figures 1 and 3).
Outcome mpi_pingpong(Phases& ph, Rounds r, u32 nodes, u32 bytes, double floor_us,
                     const std::function<SimTime(const MpiBody&)>& run,
                     const std::string* golden) {
  PingPong pp;
  ph.begin(nodes);
  const SimTime end = run([&](sim::Process& p, scrmpi::Mpi& mpi) {
    Phases::Rank rank(ph, p);
    const scrmpi::Comm& w = mpi.world();
    const i32 me = mpi.rank(w);
    if (me > 1) return;
    std::vector<u8> msg(std::max<u32>(bytes, 1)), buf(std::max<u32>(bytes, 1));
    fill_pattern(msg, 3);
    const i32 peer = 1 - me;
    const auto send = [&] {
      traced("scrmpi.send", p, [&] {
        return mpi.send(msg.data(), bytes, Datatype::kByte, peer, 0, w);
      });
    };
    const auto recv = [&] {
      traced("scrmpi.recv", p, [&] {
        return mpi.recv(buf.data(), bytes, Datatype::kByte, peer, 0, w);
      });
    };
    for (u32 i = 0; i < r.warmup + r.iters; ++i) {
      if (me == 0) {
        if (i == r.warmup) pp.t0 = p.now();
        send();
        recv();
        if (i == r.warmup + r.iters - 1) pp.t1 = p.now();
      } else {
        recv();
        send();
      }
    }
    if (!check_pattern(std::span<const u8>(buf.data(), bytes), 3))
      pp.payload_ok = false;
  });
  ph.end(end);
  Outcome o;
  o.makespan = end;
  const double us = pp.oneway_us(r.iters);
  o.results = {bits(us)};
  require(o, pp.payload_ok, "MPI ping-pong payload corrupted");
  require(o, us >= floor_us, "MPI one-way below the wire floor");
  if (golden) require_anchor(o, us, *golden, "fig1 MPI 4 B");
  return o;
}

/// Sockets-API ping-pong over a TCP fabric (Figure 2), on a simulation the
/// benchmark builds itself from the harness's fabric factory.
Outcome tcp_api_pingpong(Phases& ph, Rounds r, TcpFabricKind kind, u32 bytes) {
  PingPong pp;
  ph.begin(2);
  const u32 wire_bytes = std::max<u32>(bytes, 1);
  SimTime end = 0;
  {
    sim::Simulation sim;
    sim.set_time_limit(scrnet::ms(10000));
    auto fabric = harness::make_fabric(sim, 2, kind, {});
    const netmodels::TcpConfig cfg = harness::default_stack(kind);
    for (u32 host = 0; host < 2; ++host) {
      sim.spawn("tcp-host" + std::to_string(host), [&, host](sim::Process& p) {
        Phases::Rank rank(ph, p);
        netmodels::TcpStack stack(*fabric, host, cfg);
        std::vector<u8> msg(wire_bytes), buf(wire_bytes);
        fill_pattern(msg, 5);
        const u32 peer = 1 - host;
        for (u32 i = 0; i < r.warmup + r.iters; ++i) {
          if (host == 0) {
            if (i == r.warmup) pp.t0 = p.now();
            stack.send(p, peer, msg);
            stack.recv(p, peer, buf, wire_bytes);
            if (i == r.warmup + r.iters - 1) pp.t1 = p.now();
          } else {
            stack.recv(p, peer, buf, wire_bytes);
            stack.send(p, peer, msg);
          }
        }
        if (!check_pattern(buf, 5)) pp.payload_ok = false;
      });
    }
    sim.run();
    end = sim.now();
    if (obs::Counters::enabled()) {
      obs::Counters& c = sim.sink().counters();
      c.add("sim", "events_executed", sim.events_executed());
      c.add("net", "frames_delivered", fabric->frames_delivered());
      c.add("net", "frames_dropped", fabric->frames_dropped());
    }
  }
  ph.end(end);
  Outcome o;
  o.makespan = end;
  const double us = pp.oneway_us(r.iters);
  o.results = {bits(us)};
  require(o, pp.payload_ok, "TCP ping-pong payload corrupted");
  require(o, us >= wire_us(wire_bytes, fabric_mbits(kind)),
          "TCP one-way below the wire floor");
  return o;
}

/// BBP single-step multicast from rank 0 to every other rank (Figure 4).
Outcome bbp_bcast(Phases& ph, Rounds r, u32 nodes, u32 bytes) {
  const u32 rounds = r.warmup + r.iters;
  std::vector<SimTime> start(rounds, 0), done(rounds, 0);
  bool payload_ok = true;
  ph.begin(nodes);
  const SimTime end = harness::run_scramnet_bbp(
      nodes, [&](sim::Process& p, bbp::Endpoint& ep) {
        Phases::Rank rank(ph, p);
        std::vector<u8> msg(bytes), buf(std::max<u32>(bytes, 4));
        fill_pattern(msg, 2);
        std::vector<u32> dests;
        for (u32 n = 1; n < nodes; ++n) dests.push_back(n);
        for (u32 i = 0; i < rounds; ++i) {
          if (ep.rank() == 0) {
            start[i] = p.now();
            (void)traced("bbp.mcast", p, [&] { return ep.mcast(dests, msg); });
            for (u32 n = 1; n < nodes; ++n)
              (void)traced("bbp.recv", p, [&] { return ep.recv(n, buf); });
          } else {
            (void)traced("bbp.recv", p, [&] { return ep.recv(0, buf); });
            done[i] = std::max(done[i], p.now());
            if (!check_pattern(std::span<const u8>(buf.data(), bytes), 2))
              payload_ok = false;
            (void)traced("bbp.send", p, [&] { return ep.send(0, {}); });
          }
        }
        (void)ep.drain();
      });
  ph.end(end);
  double sum = 0;
  for (u32 i = r.warmup; i < rounds; ++i) sum += to_us(done[i] - start[i]);
  const double us = sum / r.iters;
  Outcome o;
  o.makespan = end;
  o.results = {bits(us)};
  require(o, payload_ok, "BBP multicast payload corrupted");
  require(o, us >= ring_floor_us(bytes), "BBP bcast below the ring floor");
  return o;
}

/// MPI_Barrier over ch_bbp (Figure 6).
Outcome mpi_barrier(Phases& ph, Rounds r, u32 nodes, scrmpi::CollAlgo algo) {
  SimTime t0 = 0, t1 = 0;
  ph.begin(nodes);
  const SimTime end = harness::run_scramnet_mpi(
      nodes, [&](sim::Process& p, scrmpi::Mpi& mpi) {
        Phases::Rank rank(ph, p);
        mpi.set_barrier_algo(algo);
        const scrmpi::Comm& w = mpi.world();
        for (u32 i = 0; i < r.warmup + r.iters; ++i) {
          if (mpi.rank(w) == 0 && i == r.warmup) t0 = p.now();
          traced("scrmpi.barrier", p, [&] { mpi.barrier(w); });
          if (mpi.rank(w) == 0 && i == r.warmup + r.iters - 1) t1 = p.now();
        }
      });
  ph.end(end);
  const double us = to_us(t1 - t0) / r.iters;
  Outcome o;
  o.makespan = end;
  o.results = {bits(us)};
  require(o, us >= to_us(scramnet::RingConfig{}.hop_latency),
          "barrier below one ring hop");
  return o;
}

/// BBP throughput stream rank 0 -> rank 1 (tbl_ring_throughput).
Outcome bbp_stream(Phases& ph, PacketMode mode, u32 bank_words, u32 msg_bytes,
                   u32 total_bytes, const std::string* golden) {
  constexpr u32 kNodes = 4;
  const u32 msgs = total_bytes / msg_bytes;
  SimTime t0 = 0, t1 = 0;
  bool payload_ok = true;
  harness::ScramnetOptions opts;
  opts.ring.mode = mode;
  opts.ring.bank_words = bank_words;
  ph.begin(kNodes);
  const SimTime end = harness::run_scramnet_bbp(
      kNodes,
      [&](sim::Process& p, bbp::Endpoint& ep) {
        Phases::Rank rank(ph, p);
        if (ep.rank() > 1) return;
        if (ep.rank() == 0) {
          std::vector<u8> msg(msg_bytes);
          fill_pattern(msg, 7);
          t0 = p.now();
          for (u32 i = 0; i < msgs; ++i)
            (void)traced("bbp.send", p, [&] { return ep.send(1, msg); });
          (void)ep.drain();
        } else {
          std::vector<u8> buf(msg_bytes);
          for (u32 i = 0; i < msgs; ++i)
            (void)traced("bbp.recv", p, [&] { return ep.recv(0, buf); });
          t1 = p.now();
          payload_ok = check_pattern(buf, 7);
        }
      },
      opts);
  ph.end(end);
  const double mbps = static_cast<double>(msgs) * msg_bytes / 1e6 /
                      (static_cast<double>(t1 - t0) / 1e12);
  Outcome o;
  o.makespan = end;
  o.results = {bits(mbps)};
  require(o, payload_ok, "BBP stream payload corrupted");
  require(o, mbps > 0 && mbps <= ring_ceiling_mbps(mode),
          "BBP stream above the packet-mode ceiling");
  if (golden) require_anchor(o, mbps, *golden, "tbl_ring_throughput BBP 4096 B");
  return o;
}

/// Raw ring transfer: one host_write_block from node 0 with an instant host.
Outcome raw_ring(Phases& ph, PacketMode mode, u32 bank_words, u32 bytes,
                 const std::string* golden) {
  ph.begin(1);
  SimTime end = 0;
  bool replicated = true;
  {
    sim::Simulation sim;
    sim.set_time_limit(scrnet::ms(10000));
    scramnet::RingConfig cfg;
    cfg.mode = mode;
    cfg.bank_words = bank_words;
    scramnet::Ring ring(sim, cfg);
    std::vector<u32> words(bytes / 4);
    for (u32 i = 0; i < words.size(); ++i) words[i] = i * 2654435761u;
    ph.enter(sim.now());
    ring.host_write_block(0, 0, words, 0);
    sim.run();
    ph.leave(sim, sim.now());
    end = sim.now();
    if (obs::Counters::enabled()) {
      ring.publish_counters(sim.sink().counters(), "ring");
      sim.sink().counters().add("sim", "events_executed", sim.events_executed());
    }
    const u32 last = static_cast<u32>(words.size()) - 1;
    for (u32 n = 1; n < cfg.nodes; ++n)
      replicated = replicated && ring.host_read(n, last) == words[last] &&
                   ring.host_read(n, 0) == words[0];
  }
  ph.end(end);
  const double mbps = static_cast<double>(bytes) / 1e6 /
                      (static_cast<double>(end) / 1e12);
  Outcome o;
  o.makespan = end;
  o.results = {bits(mbps)};
  require(o, replicated, "ring did not replicate the block to every bank");
  require(o, mbps > 0 && mbps <= ring_ceiling_mbps(mode),
          "raw ring above the packet-mode ceiling");
  if (golden) require_anchor(o, mbps, *golden, "tbl_ring_throughput variable mode");
  return o;
}

/// One cell of the collective tuning grid, driven exactly like the tuner's
/// measurement kernel (tune/measure.cc): selectors pinned, a p2p barrier
/// before each timed round, the op under test, latency = root start to
/// last rank done, averaged over the timed rounds.
Outcome coll_cell(Phases& ph, const std::string& device, const std::string& op,
                  const std::string& algo, u32 nodes, u32 bytes, u32 iters,
                  const std::string* golden) {
  using scrmpi::AllreduceAlgo;
  using scrmpi::CollAlgo;
  const u32 warmup = 1, rounds = warmup + iters;
  std::vector<SimTime> start(rounds, 0), done(rounds, 0);
  bool data_ok = true;
  const MpiBody body = [&](sim::Process& p, scrmpi::Mpi& mpi) {
    Phases::Rank rank(ph, p);
    const scrmpi::Comm& w = mpi.world();
    const u32 me = static_cast<u32>(mpi.rank(w));
    mpi.set_bcast_algo(CollAlgo::kNativeMcast);
    mpi.set_barrier_algo(CollAlgo::kPointToPoint);
    mpi.set_allreduce_algo(AllreduceAlgo::kReduceBcast);
    mpi.set_allgather_algo(scrmpi::AllgatherAlgo::kGatherBcast);
    const auto barrier = [&] { traced("scrmpi.barrier", p, [&] { mpi.barrier(w); }); };
    if (op == "barrier") {
      mpi.set_barrier_algo(scrmpi::coll::coll_algo_from_name(algo, CollAlgo::kPointToPoint));
      for (u32 i = 0; i < rounds; ++i) {
        if (me == 0) start[i] = p.now();
        barrier();
        if (me == 0) done[i] = std::max(done[i], p.now());
      }
    } else if (op == "bcast") {
      mpi.set_bcast_algo(scrmpi::coll::coll_algo_from_name(algo, CollAlgo::kBinomial));
      std::vector<u8> buf(std::max<u32>(bytes, 1), me == 0 ? 0x5a : 0);
      for (u32 i = 0; i < rounds; ++i) {
        barrier();
        if (me == 0) start[i] = p.now();
        traced("scrmpi.bcast", p,
               [&] { mpi.bcast(buf.data(), bytes, Datatype::kByte, 0, w); });
        done[i] = std::max(done[i], p.now());
      }
      if (buf[bytes > 0 ? bytes - 1 : 0] != 0x5a) data_ok = false;
    } else {
      mpi.set_allreduce_algo(
          scrmpi::coll::allreduce_algo_from_name(algo, AllreduceAlgo::kReduceBcast));
      const u32 count = std::max<u32>(1, bytes / 8);
      std::vector<double> in(count), out(count);
      for (u32 i = 0; i < count; ++i) in[i] = static_cast<double>(i % 64);
      for (u32 i = 0; i < rounds; ++i) {
        barrier();
        if (me == 0) start[i] = p.now();
        traced("scrmpi.allreduce", p, [&] {
          mpi.allreduce(in.data(), out.data(), count, Datatype::kDouble,
                        scrmpi::ReduceOp::kSum, w);
        });
        done[i] = std::max(done[i], p.now());
      }
      for (u32 i = 0; i < count; ++i)
        if (out[i] != in[i] * nodes) data_ok = false;
    }
  };
  ph.begin(nodes);
  SimTime end = 0;
  if (device == "bbp") {
    end = harness::run_scramnet_mpi(nodes, body, {});
  } else if (device == "sock") {
    end = harness::run_tcp_mpi(nodes, TcpFabricKind::kFastEthernet, body, {});
  } else {
    end = harness::run_rdma_mpi(nodes, body, {});
  }
  ph.end(end);
  double sum = 0;
  for (u32 i = warmup; i < rounds; ++i) sum += to_us(done[i] - start[i]);
  const double us = sum / iters;
  Outcome o;
  o.makespan = end;
  o.results = {bits(us)};
  require(o, data_ok, op + " delivered wrong data");
  require(o, plausible(us), op + " latency not positive");
  if (op != "barrier") {
    const double mbits = device == "bbp"    ? scramnet::RingConfig{}.variable_mbps * 8
                         : device == "sock" ? netmodels::EthernetConfig{}.mbits_per_s
                                            : netmodels::RdmaConfig{}.mbits_per_s;
    require(o, us >= wire_us(bytes, mbits), op + " below the wire floor");
  }
  if (golden) require_anchor(o, us, *golden, "abl_bcast bbp 8 nodes 8 B native");
  return o;
}

/// Operations a workload spec attempts, counted once each.
u64 attempted_ops(const workload::Spec& s) {
  switch (s.pattern) {
    case workload::Pattern::kRpc: return u64{s.nodes / 2} * s.ops;
    case workload::Pattern::kAllToAll: return u64{s.nodes} * s.ops;
    default: return u64{s.nodes - 1} * s.ops;
  }
}

/// One seeded workload::Spec through the library's own rank bodies.
Outcome workload_spec(Phases& ph, const workload::Spec& spec,
                      const std::string* golden) {
  ph.begin(0);
  const workload::Report rep = workload::run(spec);
  ph.end(rep.makespan);
  Outcome o;
  o.makespan = rep.makespan;
  o.has_report = true;
  o.ops_ok = rep.ops_ok;
  o.ops_timeout = rep.ops_timeout;
  o.ops_error = rep.ops_error;
  o.aborted = rep.aborted;
  for (u64 f : rep.fault_fired) o.faults_fired += f;
  o.latency_ns = rep.latency;
  o.results = {rep.ops_ok, rep.ops_timeout,
               rep.ops_error, rep.retried, rep.aborted, rep.latency.count(),
               rep.latency.percentile_permille(500),
               rep.latency.percentile_permille(990), rep.latency.max()};
  const u64 want = attempted_ops(spec);
  require(o, rep.ops_ok + rep.ops_error <= want, "more completions than operations");
  require(o, rep.ops_ok + rep.ops_timeout + rep.ops_error + rep.aborted >= want,
          "operations unaccounted for");
  require(o, rep.ops_timeout > 0 || rep.aborted > 0 || rep.ops_ok == want,
          "operations lost without a timeout");
  if (golden) {
    const std::string got = rep.render(spec);
    require(o, got == *golden, "flt_scenarios break_incast_bbp render differs");
  }
  return o;
}

/// A ping-pong with a bounded wait under a ring link failure, through the
/// benchmark's own rank bodies: every blocking call returns, some with
/// kTimedOut. `mpi` selects the MPI layer over ch_bbp instead of BBP.
Outcome timeout_pingpong(Phases& ph, bool mpi_layer, u32 link, SimTime down_at,
                         u32 bytes, SimTime timeout) {
  constexpr u32 kNodes = 4, kRounds = 24;
  fault::FaultPlan plan;
  plan.link_down(down_at, link);
  harness::ScramnetOptions opts;
  opts.bbp.poll_timeout = timeout;
  opts.mpi.op_timeout = timeout;
  opts.faults = &plan;
  u32 completed = 0, timed_out = 0;
  const auto step = [&](bool ok) {
    ok ? ++completed : ++timed_out;
    return ok;
  };
  ph.begin(kNodes);
  SimTime end = 0;
  if (mpi_layer) {
    end = harness::run_scramnet_mpi(
        kNodes,
        [&](sim::Process& p, scrmpi::Mpi& mpi) {
          Phases::Rank rank(ph, p);
          const scrmpi::Comm& w = mpi.world();
          const i32 me = mpi.rank(w);
          if (me > 1) return;
          std::vector<u8> msg(bytes), buf(bytes);
          const i32 peer = 1 - me;
          const auto send = [&] {
            return step(traced("scrmpi.send", p, [&] {
              return mpi.send(msg.data(), bytes, Datatype::kByte, peer, 0, w);
            }).ok());
          };
          const auto recv = [&] {
            return step(traced("scrmpi.recv", p, [&] {
              return mpi.recv(buf.data(), bytes, Datatype::kByte, peer, 0, w);
            }).ok());
          };
          for (u32 i = 0; i < kRounds; ++i)
            if (!(me == 0 ? send() && recv() : recv() && send())) break;
        },
        opts);
  } else {
    end = harness::run_scramnet_bbp(
        kNodes,
        [&](sim::Process& p, bbp::Endpoint& ep) {
          Phases::Rank rank(ph, p);
          if (ep.rank() > 1) return;
          std::vector<u8> msg(bytes), buf(bytes);
          const u32 peer = 1 - ep.rank();
          const auto send = [&] {
            return step(traced("bbp.send", p, [&] { return ep.send(peer, msg); }).ok());
          };
          const auto recv = [&] {
            return step(traced("bbp.recv", p, [&] { return ep.recv(peer, buf); }).ok());
          };
          for (u32 i = 0; i < kRounds; ++i)
            if (!(ep.rank() == 0 ? send() && recv() : recv() && send())) break;
          (void)ep.drain();
        },
        opts);
  }
  ph.end(end);
  Outcome o;
  o.makespan = end;
  o.results = {static_cast<u64>(end), completed, timed_out,
               plan.fired(fault::FaultKind::kLinkDown)};
  require(o, plan.fired(fault::FaultKind::kLinkDown) == 1, "link failure not injected");
  require(o, completed + timed_out <= 4 * kRounds, "more outcomes than calls");
  return o;
}

// -- seeded draws -------------------------------------------------------------

struct Draw {
  Rng rng;
  explicit Draw(u64 seed) : rng(seed) {}
  /// A value within 1/32 of `center`, rounded down to a multiple of
  /// `align`. The bands are narrow so that every seed's pass costs about
  /// the same host time: the seed varies values, not the mix.
  u32 near(u32 center, u32 align = 1) {
    const u32 v = static_cast<u32>(rng.range(center - center / 32, center + center / 32));
    return std::max(align, v / align * align);
  }
};

std::string kb(u32 bytes) { return std::to_string(bytes) + "B"; }

std::string mode_name(PacketMode m) {
  return m == PacketMode::kFixed4 ? "fixed4" : "variable";
}

Outcome mpi_bbp_pingpong(Phases& ph, Rounds r, u32 bytes, const std::string* golden) {
  return mpi_pingpong(
      ph, r, 4, bytes, ring_floor_us(bytes),
      [](const MpiBody& b) { return harness::run_scramnet_mpi(4, b); }, golden);
}

std::vector<Input> paper_figs(Draw& d, const Goldens& g) {
  std::vector<Input> in;
  in.push_back({"anchor_fig1", "anchor_fig1/bbp/4B",
                [&g](Phases& ph) { return bbp_pingpong(ph, kFigure, 4, &g.fig1_bbp_4b); }});
  in.push_back({"anchor_fig1", "anchor_fig1/mpi/4B",
                [&g](Phases& ph) { return mpi_bbp_pingpong(ph, kFigure, 4, &g.fig1_mpi_4b); }});
  for (u32 center : {32u, 256u, 1024u, 4096u, 14336u}) {
    const u32 b1 = d.near(center), b2 = d.near(center);
    in.push_back({"bbp_pingpong", "bbp_pingpong/" + kb(b1),
                  [b1](Phases& ph) { return bbp_pingpong(ph, kShort, b1, nullptr); }});
    in.push_back({"mpi_bbp_pingpong", "mpi_bbp_pingpong/" + kb(b2),
                  [b2](Phases& ph) { return mpi_bbp_pingpong(ph, kShort, b2, nullptr); }});
  }
  for (TcpFabricKind k : kFabrics) {
    for (u32 center : {32u, 4096u}) {
      const u32 b1 = d.near(center), b2 = d.near(center);
      const std::string fab = harness::to_string(k);
      in.push_back({"mpi_tcp_pingpong", "mpi_tcp_pingpong/" + fab + "/" + kb(b1),
                    [k, b1](Phases& ph) {
                      return mpi_pingpong(
                          ph, kShort, 2, b1, wire_us(b1, fabric_mbits(k)),
                          [k](const MpiBody& b) { return harness::run_tcp_mpi(2, k, b); },
                          nullptr);
                    }});
      in.push_back({"tcp_api_pingpong", "tcp_api_pingpong/" + fab + "/" + kb(b2),
                    [k, b2](Phases& ph) { return tcp_api_pingpong(ph, kShort, k, b2); }});
    }
  }
  for (u32 nodes = 2; nodes <= 4; ++nodes) {
    const u32 b = d.near(512);
    in.push_back({"bbp_bcast", "bbp_bcast/" + std::to_string(nodes) + "n/" + kb(b),
                  [nodes, b](Phases& ph) { return bbp_bcast(ph, kShort, nodes, b); }});
    for (auto algo : {scrmpi::CollAlgo::kNativeMcast, scrmpi::CollAlgo::kPointToPoint})
      in.push_back({"mpi_barrier",
                    "mpi_barrier/" + std::string(scrmpi::coll_algo_name(algo)) + "/" +
                        std::to_string(nodes) + "n",
                    [nodes, algo](Phases& ph) { return mpi_barrier(ph, kShort, nodes, algo); }});
  }
  return in;
}

std::vector<Input> ring_stream(Draw& d, const Goldens& g) {
  std::vector<Input> in;
  in.push_back({"anchor_ring", "anchor_ring/raw/variable/1MiB", [&g](Phases& ph) {
                  return raw_ring(ph, PacketMode::kVariable, kBankWords, 1u << 20,
                                  &g.ring_variable);
                }});
  in.push_back({"anchor_ring", "anchor_ring/bbp/variable/4096B/1MiB", [&g](Phases& ph) {
                  return bbp_stream(ph, PacketMode::kVariable, kBankWords, 4096,
                                    1u << 20, &g.ring_bbp_4096);
                }});
  // The seeded cells run on a 1 MiB bank per node (the anchors keep the
  // paper's 4 MiB), so that the event loop, not zero-filling banks,
  // dominates a simulation. Fixed-4 mode floods the kernel's overflow heap;
  // its totals sit at the low end of the range, variable-mode totals at the
  // high end, and fixed-4 cells are the majority.
  const auto add = [&](PacketMode m, std::initializer_list<u32> totals_kb,
                       std::initializer_list<u32> msgs_kb) {
    for (u32 total_kb : totals_kb) {
      for (u32 msg_kb : msgs_kb) {
        const u32 msg = d.near(msg_kb << 10, 4);
        const u32 t = std::max(d.near(total_kb << 10, 4096) / msg * msg, msg);
        in.push_back({"bbp_stream_" + mode_name(m),
                      "bbp_stream/" + mode_name(m) + "/" + kb(msg) + "/" + kb(t),
                      [m, msg, t](Phases& ph) {
                        return bbp_stream(ph, m, kStreamBankWords, msg, t, nullptr);
                      }});
      }
      const u32 raw = d.near(total_kb << 10, 4);
      in.push_back({"raw_ring_" + mode_name(m), "raw_ring/" + mode_name(m) + "/" + kb(raw),
                    [m, raw](Phases& ph) {
                      return raw_ring(ph, m, kStreamBankWords, raw, nullptr);
                    }});
    }
  };
  add(PacketMode::kVariable, {256, 384, 512}, {8});
  add(PacketMode::kFixed4, {64, 128, 192}, {1, 4, 16, 56});
  return in;
}

std::vector<Input> coll_zoo(Draw& d, const Goldens& g) {
  std::vector<Input> in;
  in.push_back({"anchor_coll", "anchor_coll/bbp/bcast/native/8n/8B", [&g](Phases& ph) {
                  return coll_cell(ph, "bbp", "bcast", "native", 8, 8, 4,
                                   &g.abl_bcast_native8);
                }});
  // Each algorithm gets a small cell (4-6 nodes, ~64 B) and a large one
  // (8-12 nodes, ~8 KiB, past the RDMA eager limit). Node counts rotate
  // with the algorithm's position in the candidate list.
  for (const std::string& dev : tune::kSweepDevices) {
    for (const std::string op : {"bcast", "allreduce", "barrier"}) {
      const std::vector<std::string> algos = tune::candidates(dev, op);
      for (u32 ai = 0; ai < algos.size(); ++ai) {
        const std::string& algo = algos[ai];
        for (const auto& [nodes, center] : {std::pair<u32, u32>{4 + ai % 3, 64},
                                           std::pair<u32, u32>{8 + 2 * (ai % 3), 8192}}) {
          const u32 bytes = op == "barrier" ? 0 : d.near(center, 8);
          in.push_back({"coll_" + dev + "_" + op,
                        "coll/" + dev + "/" + op + "/" + algo + "/" + std::to_string(nodes) +
                            "n/" + kb(bytes),
                        [dev, op, algo, nodes, bytes](Phases& ph) {
                          return coll_cell(ph, dev, op, algo, nodes, bytes, 2, nullptr);
                        }});
        }
      }
    }
  }
  return in;
}

workload::Spec flt_break_incast_bbp() {
  workload::Spec s;
  s.name = "break_incast_bbp";
  s.pattern = workload::Pattern::kIncast;
  s.device = workload::Device::kBbp;
  s.nodes = 8;
  s.bbp_slots = 8;
  s.op_timeout = scrnet::ms(2);
  s.faults.link_down(us(150), 7);
  return s;
}

std::vector<Input> fault_mix(Draw& d, const Goldens& g) {
  using workload::Device;
  using workload::Pattern;
  enum class Fault { kLinkDown, kNicSpeed, kLoss, kPartition, kSlow, kHostIo, kCongest };
  std::vector<Input> in;
  in.push_back({"anchor_flt", "anchor_flt/break_incast_bbp", [&g](Phases& ph) {
                  return workload_spec(ph, flt_break_incast_bbp(), &g.flt_break_incast);
                }});
  // One fault kind and target per (pattern, device) stratum, so every seed
  // injects the same mix; the seed draws times, sizes, the timeout and the
  // spec's own seed (hot-spot destinations, frame-loss decisions). Flapping
  // links are left out: a link that heals mid-message delivers a torn BBP
  // packet ("ch_bbp: runt packet") and the simulation fails.
  struct Stratum {
    Pattern pattern;
    Device device;
    Fault fault;
    u32 node;
  };
  const std::array<Stratum, 12> strata{{
      {Pattern::kRpc, Device::kBbp, Fault::kSlow, 4},
      {Pattern::kIncast, Device::kBbp, Fault::kLinkDown, 7},
      {Pattern::kHotspot, Device::kBbp, Fault::kNicSpeed, 1},
      {Pattern::kAllToAll, Device::kBbp, Fault::kHostIo, 3},
      {Pattern::kRpc, Device::kSock, Fault::kCongest, 0},
      {Pattern::kIncast, Device::kSock, Fault::kPartition, 0},
      {Pattern::kHotspot, Device::kSock, Fault::kLoss, 0},
      {Pattern::kAllToAll, Device::kSock, Fault::kPartition, 5},
      {Pattern::kRpc, Device::kHybrid, Fault::kLinkDown, 3},
      {Pattern::kIncast, Device::kHybrid, Fault::kLinkDown, 7},
      {Pattern::kHotspot, Device::kHybrid, Fault::kSlow, 0},
      {Pattern::kAllToAll, Device::kHybrid, Fault::kLoss, 0},
  }};
  constexpr double kFactor = 4.0;
  for (const Stratum& st : strata) {
    workload::Spec s;
    s.pattern = st.pattern;
    s.device = st.device;
    s.fabric = st.device == Device::kSock ? TcpFabricKind::kFastEthernet
                                          : TcpFabricKind::kMyrinet;
    s.nodes = 8;
    s.msg_bytes = d.near(st.device == Device::kHybrid ? 1024 : 64);
    s.seed = d.rng();
    s.bbp_slots = 8;
    s.op_timeout = us(d.near(2000));
    const SimTime at = us(d.near(300));
    switch (st.fault) {
      case Fault::kLinkDown: s.faults.link_down(at, st.node); break;
      case Fault::kNicSpeed: s.faults.nic_speed(at, st.node, kFactor); break;
      case Fault::kLoss: s.faults.frame_loss(at, at + scrnet::ms(1), 0.1, d.rng()); break;
      case Fault::kPartition:
        s.faults.partition(at, fault::FaultPlan::kAnyNode, st.node);
        break;
      case Fault::kSlow: s.faults.slow_node(at, st.node, kFactor); break;
      case Fault::kHostIo: s.faults.host_congestion(at, st.node, kFactor); break;
      case Fault::kCongest: s.faults.fabric_congestion(at, at + scrnet::ms(2), us(50)); break;
    }
    s.name = std::string(workload::to_string(s.pattern)) + "_" +
             std::string(workload::to_string(s.device));
    in.push_back({"workload_" + std::string(workload::to_string(s.device)),
                  "workload/" + s.name + "/" + kb(s.msg_bytes),
                  [s](Phases& ph) { return workload_spec(ph, s, nullptr); }});
  }
  for (bool mpi_layer : {false, true}) {
    const u32 link = mpi_layer ? 2 : 0;
    const SimTime at = us(d.near(250));
    const u32 bytes = d.near(256);
    const SimTime timeout = us(d.near(1000));
    in.push_back({mpi_layer ? "timeout_mpi" : "timeout_bbp",
                  std::string(mpi_layer ? "timeout_mpi" : "timeout_bbp") + "/link" +
                      std::to_string(link) + "/" + kb(bytes),
                  [=](Phases& ph) {
                    return timeout_pingpong(ph, mpi_layer, link, at, bytes, timeout);
                  }});
  }
  return in;
}

// -- golden files -------------------------------------------------------------

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read golden file " + path);
  std::vector<std::string> lines;
  for (std::string l; std::getline(f, l);) lines.push_back(l);
  return lines;
}

/// Trimmed cells of a "| a | b |" table row.
std::vector<std::string> cells(const std::string& row) {
  std::vector<std::string> out;
  std::stringstream ss(row);
  std::string c;
  std::getline(ss, c, '|');  // before the first bar
  while (std::getline(ss, c, '|')) {
    const auto b = c.find_first_not_of(' ');
    const auto e = c.find_last_not_of(' ');
    out.push_back(b == std::string::npos ? "" : c.substr(b, e - b + 1));
  }
  return out;
}

/// Column `col` of the first table row whose first cell is `key`, searching
/// from the first line that contains `after`.
std::string cell(const std::vector<std::string>& lines, const std::string& after,
                 const std::string& key, usize col, const std::string& file) {
  bool armed = after.empty();
  for (const std::string& l : lines) {
    if (!armed) {
      armed = l.find(after) != std::string::npos;
      continue;
    }
    if (l.empty() || l[0] != '|') continue;
    const auto cs = cells(l);
    if (cs.size() > col && cs[0] == key) return cs[col];
  }
  throw std::runtime_error("golden cell '" + key + "' not found in " + file);
}

}  // namespace

Goldens load_goldens(const std::string& dir) {
  Goldens g;
  const auto fig1 = read_lines(dir + "/fig1_latency.txt");
  g.fig1_bbp_4b = cell(fig1, "", "4", 1, "fig1_latency.txt");
  g.fig1_mpi_4b = cell(fig1, "", "4", 2, "fig1_latency.txt");
  const auto tbl = read_lines(dir + "/tbl_ring_throughput.txt");
  g.ring_variable = cell(tbl, "", "variable packets (<=1KB)", 2, "tbl_ring_throughput.txt");
  g.ring_bbp_4096 = cell(tbl, "BBP end-to-end", "4096", 1, "tbl_ring_throughput.txt");
  const auto abl = read_lines(dir + "/abl_bcast.txt");
  g.abl_bcast_native8 = cell(abl, "-- SCRAMNet (bbp), 8 nodes --", "8", 1, "abl_bcast.txt");
  const auto flt = read_lines(dir + "/flt_scenarios.txt");
  bool in_block = false;
  for (const std::string& l : flt) {
    if (!in_block && l.rfind("[break_incast_bbp]", 0) != 0) continue;
    if (in_block && l.empty()) break;
    in_block = true;
    g.flt_break_incast += l + "\n";
  }
  if (g.flt_break_incast.empty())
    throw std::runtime_error("[break_incast_bbp] block not found in flt_scenarios.txt");
  return g;
}

Recorder& recorder() {
  static Recorder r;
  return r;
}

std::vector<Input> make_inputs(const std::string& workload, u64 seed,
                               const Goldens& g) {
  Draw d(seed);
  std::vector<Input> in;
  if (workload == "paper_figs") {
    in = paper_figs(d, g);
  } else if (workload == "ring_stream") {
    in = ring_stream(d, g);
  } else if (workload == "coll_zoo") {
    in = coll_zoo(d, g);
  } else if (workload == "fault_mix") {
    in = fault_mix(d, g);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  std::set<std::string> kinds;
  for (Input& i : in) i.warm = kinds.insert(i.kind).second;
  return in;
}

scramnet::RingConfig workload_ring(const std::string& workload) {
  scramnet::RingConfig rc;
  rc.nodes = workload == "coll_zoo" || workload == "fault_mix" ? 8 : 4;
  if (workload == "ring_stream") rc.bank_words = kStreamBankWords;
  return rc;
}

}  // namespace perfbench
