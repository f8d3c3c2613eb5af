#include "harness/benchops.h"

#include <algorithm>
#include <cassert>

#include "common/bytes.h"

namespace scrnet::harness {

namespace {

using MpiBody = std::function<void(sim::Process&, scrmpi::Mpi&)>;
using MpiRun = std::function<SimTime(const MpiBody&)>;

/// `warmup + iters` ping-pong round trips between ranks 0 and 1, over
/// whatever transport `send` and `recv` drive: rank 0 sends first and
/// stamps the timed window, rank 1 echoes.
struct PingPong {
  u32 iters;
  u32 warmup;
  SimTime t_start = 0;
  SimTime t_end = 0;

  void run(sim::Process& p, u32 rank, sim::FnRef<void()> send,
           sim::FnRef<void()> recv) {
    for (u32 i = 0; i < warmup + iters; ++i) {
      if (rank == 0) {
        if (i == warmup) t_start = p.now();
        send();
        recv();
        if (i == warmup + iters - 1) t_end = p.now();
      } else {
        recv();
        send();
      }
    }
  }
  double oneway_us() const { return to_us(t_end - t_start) / (2.0 * iters); }
};

}  // namespace

// ---------------------------------------------------------------------------
// One-way latency: ping-pong
// ---------------------------------------------------------------------------

double bbp_oneway_us(u32 bytes, u32 nodes, u32 iters, u32 warmup,
                     ScramnetOptions opts) {
  PingPong pp{iters, warmup};
  run_scramnet_bbp(
      nodes,
      [&](sim::Process& p, bbp::Endpoint& ep) {
        if (ep.rank() > 1) return;  // paper: measurement between two nodes
        std::vector<u8> msg(bytes), buf(std::max<u32>(bytes, 4));
        fill_pattern(msg, 1);
        const u32 peer = 1 - ep.rank();
        pp.run(
            p, ep.rank(), [&] { (void)ep.send(peer, msg); },
            [&] { (void)ep.recv(peer, buf); });
        ep.drain();
      },
      opts);
  return pp.oneway_us();
}

namespace {
double mpi_pingpong(const MpiRun& run, u32 bytes) {
  PingPong pp{kIters, kWarmup};
  run([&](sim::Process& p, scrmpi::Mpi& mpi) {
    const scrmpi::Comm& w = mpi.world();
    const i32 me = mpi.rank(w);
    if (me > 1) return;
    std::vector<u8> msg(std::max<u32>(bytes, 1)), buf(std::max<u32>(bytes, 1));
    const i32 peer = 1 - me;
    pp.run(
        p, static_cast<u32>(me),
        [&] { mpi.send(msg.data(), bytes, scrmpi::Datatype::kByte, peer, 0, w); },
        [&] { mpi.recv(buf.data(), bytes, scrmpi::Datatype::kByte, peer, 0, w); });
  });
  return pp.oneway_us();
}
}  // namespace

double mpi_scramnet_oneway_us(u32 bytes, u32 nodes, ScramnetOptions opts) {
  return mpi_pingpong(
      [&](const MpiBody& body) { return run_scramnet_mpi(nodes, body, opts); },
      bytes);
}

double mpi_tcp_oneway_us(TcpFabricKind kind, u32 bytes) {
  return mpi_pingpong([&](const MpiBody& body) { return run_tcp_mpi(2, kind, body); },
                      bytes);
}

double mpi_hybrid_oneway_us(u32 bytes, u32 threshold) {
  return mpi_pingpong(
      [&](const MpiBody& body) {
        return run_hybrid_mpi(2, TcpFabricKind::kMyrinet, threshold, body);
      },
      bytes);
}

double tcp_api_oneway_us(TcpFabricKind kind, u32 bytes, u32 iters, u32 warmup,
                         const netmodels::EthernetConfig& ethernet,
                         fault::FaultPlan* faults) {
  PingPong pp{iters, warmup};
  sim::Simulation sim;
  auto fabric = make_fabric(sim, 2, kind, ethernet);
  const netmodels::TcpConfig cfg = default_stack(kind);
  const u32 wire_bytes = std::max<u32>(bytes, 1);  // 0B -> 1 dummy byte
  run_cluster(sim, 2, "tcp-host", nullptr, fabric.get(), faults,
              [&](sim::Process& p, u32 r) {
                netmodels::TcpStack stack(*fabric, r, cfg);
                std::vector<u8> msg(wire_bytes), buf(wire_bytes);
                const u32 peer = 1 - r;
                pp.run(
                    p, r, [&] { stack.send(p, peer, msg); },
                    [&] { stack.recv(p, peer, buf, wire_bytes); });
              });
  return pp.oneway_us();
}

double myrinet_api_oneway_us(u32 bytes, u32 iters, u32 warmup) {
  PingPong pp{iters, warmup};
  sim::Simulation sim;
  netmodels::MyrinetFabric fabric(sim, 2);
  run_cluster(sim, 2, "myr-host", nullptr, &fabric, nullptr,
              [&](sim::Process& p, u32 r) {
                netmodels::MyrinetApi api(fabric, r);
                std::vector<u8> msg(bytes), buf(std::max<u32>(bytes, 1));
                const u32 peer = 1 - r;
                pp.run(
                    p, r, [&] { api.send(p, peer, msg); },
                    [&] { api.recv(p, peer, buf, bytes); });
              });
  return pp.oneway_us();
}

// ---------------------------------------------------------------------------
// Broadcast latency: root send -> last receiver done
// ---------------------------------------------------------------------------

double bbp_bcast_us(u32 bytes, u32 nodes) {
  const u32 rounds = kWarmup + kIters;
  RoundClock clk(rounds);
  run_scramnet_bbp(nodes, [&](sim::Process& p, bbp::Endpoint& ep) {
    std::vector<u8> msg(bytes), buf(std::max<u32>(bytes, 4));
    fill_pattern(msg, 2);
    std::vector<u32> dests;
    for (u32 r = 1; r < nodes; ++r) dests.push_back(r);
    for (u32 i = 0; i < rounds; ++i) {
      if (ep.rank() == 0) {
        clk.start[i] = p.now();
        (void)ep.mcast(dests, msg);
        // Resynchronize: collect a 0-byte ack from every receiver
        // (outside the measured interval).
        for (u32 r = 1; r < nodes; ++r) (void)ep.recv(r, buf);
      } else {
        (void)ep.recv(0, buf);
        clk.record_done(i, p.now());
        (void)ep.send(0, {});
      }
    }
    ep.drain();
  });
  return clk.avg_us(kWarmup);
}

namespace {
double mpi_bcast_measure(const MpiRun& run, u32 bytes, scrmpi::CollAlgo algo) {
  const u32 rounds = kWarmup + kIters;
  RoundClock clk(rounds);
  run([&](sim::Process& p, scrmpi::Mpi& mpi) {
    mpi.set_bcast_algo(algo);
    const scrmpi::Comm& w = mpi.world();
    const i32 me = mpi.rank(w);
    std::vector<u8> buf(std::max<u32>(bytes, 1));
    u8 token = 0;
    for (u32 i = 0; i < rounds; ++i) {
      if (me == 0) {
        clk.start[i] = p.now();
        mpi.bcast(buf.data(), bytes, scrmpi::Datatype::kByte, 0, w);
        for (u32 r = 1; r < kNodes; ++r)
          mpi.recv(&token, 1, scrmpi::Datatype::kByte, static_cast<i32>(r), 99, w);
      } else {
        mpi.bcast(buf.data(), bytes, scrmpi::Datatype::kByte, 0, w);
        clk.record_done(i, p.now());
        mpi.send(&token, 1, scrmpi::Datatype::kByte, 0, 99, w);
      }
    }
  });
  return clk.avg_us(kWarmup);
}
}  // namespace

double mpi_scramnet_bcast_us(u32 bytes, scrmpi::CollAlgo algo) {
  return mpi_bcast_measure(
      [](const MpiBody& body) { return run_scramnet_mpi(kNodes, body); }, bytes,
      algo);
}

double mpi_tcp_bcast_us(TcpFabricKind kind, u32 bytes) {
  return mpi_bcast_measure(
      [&](const MpiBody& body) { return run_tcp_mpi(kNodes, kind, body); }, bytes,
      scrmpi::CollAlgo::kPointToPoint);
}

// ---------------------------------------------------------------------------
// Barrier latency
// ---------------------------------------------------------------------------

namespace {
double mpi_barrier_measure(const MpiRun& run, scrmpi::CollAlgo algo) {
  SimTime t_start = 0, t_end = 0;
  run([&](sim::Process& p, scrmpi::Mpi& mpi) {
    mpi.set_barrier_algo(algo);
    const scrmpi::Comm& w = mpi.world();
    for (u32 i = 0; i < kWarmup + kIters; ++i) {
      if (mpi.rank(w) == 0 && i == kWarmup) t_start = p.now();
      mpi.barrier(w);
      if (mpi.rank(w) == 0 && i == kWarmup + kIters - 1) t_end = p.now();
    }
  });
  return to_us(t_end - t_start) / kIters;
}
}  // namespace

double mpi_scramnet_barrier_us(scrmpi::CollAlgo algo, u32 nodes) {
  return mpi_barrier_measure(
      [&](const MpiBody& body) { return run_scramnet_mpi(nodes, body); }, algo);
}

double mpi_tcp_barrier_us(TcpFabricKind kind, u32 nodes) {
  return mpi_barrier_measure(
      [&](const MpiBody& body) { return run_tcp_mpi(nodes, kind, body); },
      scrmpi::CollAlgo::kPointToPoint);
}

// ---------------------------------------------------------------------------
// Throughput
// ---------------------------------------------------------------------------

double bbp_throughput_mbps(u32 bytes, u32 total_bytes, ScramnetOptions opts) {
  assert(bytes > 0);
  const u32 msgs = total_bytes / bytes;
  SimTime t_start = 0, t_end = 0;
  run_scramnet_bbp(
      kNodes,
      [&](sim::Process& p, bbp::Endpoint& ep) {
        if (ep.rank() > 1) return;
        if (ep.rank() == 0) {
          std::vector<u8> msg(bytes);
          t_start = p.now();
          for (u32 i = 0; i < msgs; ++i) (void)ep.send(1, msg);
          ep.drain();
        } else {
          std::vector<u8> buf(bytes);
          for (u32 i = 0; i < msgs; ++i) (void)ep.recv(0, buf);
          t_end = p.now();
        }
      },
      opts);
  const double secs = static_cast<double>(t_end - t_start) / 1e12;
  return static_cast<double>(msgs) * bytes / 1e6 / secs;
}

}  // namespace scrnet::harness
