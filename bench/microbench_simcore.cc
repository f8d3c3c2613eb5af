// Host-performance microbenchmarks (google-benchmark, real wall time):
// how fast the simulator substrate itself runs. All figure benches measure
// *virtual* time; this one guards the real-time cost of reproducing them.
#include <benchmark/benchmark.h>

#include "bbp/endpoint.h"
#include "common/bytes.h"
#include "harness/benchops.h"
#include "netmodels/rdma.h"
#include "scramnet/ring.h"
#include "scramnet/sim_port.h"
#include "sim/simulation.h"
#include "sweep/runner.h"

namespace {

using namespace scrnet;

/// Raw event throughput of the DES kernel, posting the way device models
/// do: a small trivially-copyable functor that fits the queue's inline
/// event buffer, so the whole post/step cycle is allocation-free.
void BM_SimKernelEvents(benchmark::State& state) {
  const int chain = static_cast<int>(state.range(0));
  u64 events = 0;
  struct Tick {
    sim::Simulation* sim;
    int* remaining;
    void operator()() const {
      if (--*remaining > 0) sim->post(ns(10), *this);
    }
  };
  for (auto _ : state) {
    sim::Simulation sim;
    int remaining = chain;
    sim.post(ns(10), Tick{&sim, &remaining});
    sim.run();
    events += sim.events_executed();
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimKernelEvents)->Arg(1000)->Arg(100000);

/// Same chain through a type-erased std::function, the only idiom the old
/// priority-queue kernel supported (each post paid a heap-allocated copy).
/// Kept to track the legacy path's trajectory.
void BM_SimKernelEventsErased(benchmark::State& state) {
  const int chain = static_cast<int>(state.range(0));
  u64 events = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    int remaining = chain;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.post(ns(10), tick);
    };
    sim.post(ns(10), tick);
    sim.run();
    events += sim.events_executed();
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimKernelEventsErased)->Arg(100000);

/// Queue churn with many outstanding events: every handler reposts itself
/// at a pseudo-random future delay, so the calendar's buckets and overflow
/// heap both stay loaded. Arg = events kept in flight (old kernel: O(log n)
/// per op on a 48-byte-element binary heap; calendar: O(1) bucket append).
void BM_SimQueueChurn(benchmark::State& state) {
  const int outstanding = static_cast<int>(state.range(0));
  constexpr int kRounds = 16;
  u64 events = 0;
  struct Churn {
    sim::Simulation* sim;
    u32 lcg;
    int remaining;
    void operator()() {
      if (--remaining <= 0) return;
      lcg = lcg * 1664525u + 1013904223u;
      // Mix near-bucket delays with beyond-horizon ones (up to ~67 us).
      sim->post(ps(1 + (lcg >> 6) % 67'000'000), *this);
    }
  };
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < outstanding; ++i)
      sim.post(ns(10 + i), Churn{&sim, static_cast<u32>(i) * 2654435761u, kRounds});
    sim.run();
    events += sim.events_executed();
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimQueueChurn)->Arg(1000)->Arg(10000);

/// A fixed-4 block write's queue shape: one monotone far-future burst,
/// 240 ns apart, posted up front and drained. Nearly every event goes
/// through the overflow heap and ~140 migrate per window advance. Arg =
/// burst size; time per event may grow with log(size) from the heap pops,
/// never with the size itself (migration cost proportional to the
/// migrants, not to the heap).
void BM_SimQueueFarFuture(benchmark::State& state) {
  const int burst = static_cast<int>(state.range(0));
  u64 events = 0;
  struct Noop {
    void operator()() const {}
  };
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < burst; ++i) sim.post(us(40) + i * ns(240), Noop{});
    sim.run();
    events += sim.events_executed();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_SimQueueFarFuture)->Arg(10000)->Arg(100000);

/// Cost of a delay. Args = {delays per process, processes}. One process
/// has nothing to wait for, so every delay resumes in place; two start
/// together and delay alike, so every resume ties with the other's and
/// takes the delay -> kernel -> resume round trip with two fiber switches.
void BM_SimProcessSwitch(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  const int procs = static_cast<int>(state.range(1));
  u64 delays = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    for (int k = 0; k < procs; ++k) {
      sim.spawn("p", [&](sim::Process& p) {
        for (int i = 0; i < hops; ++i) p.delay(ns(5));
      });
    }
    sim.run();
    delays += static_cast<u64>(hops) * static_cast<u64>(procs);
  }
  state.counters["delay/s"] =
      benchmark::Counter(static_cast<double>(delays), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimProcessSwitch)->Args({1000, 1})->Args({1000, 2});

/// Process spawn + run-to-exit + teardown cost. The bodies are empty, so
/// lifetimes never overlap: every process takes the one stack the thread's
/// cache holds (no mmap after the first iteration).
void BM_SimSpawnTeardown(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  u64 spawned = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < procs; ++i) sim.spawn("p", [](sim::Process&) {});
    sim.run();
    spawned += static_cast<u64>(procs);
  }
  state.counters["procs/s"] =
      benchmark::Counter(static_cast<double>(spawned), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimSpawnTeardown)->Arg(1000);

/// End-to-end 64-node ring (driving the ring layer directly keeps the event
/// mix pure kernel): every node's host streams block writes into its own
/// region with staggered starts, and each write's packets walk all 63
/// downstream nodes. The host-time cost of one big topology.
void BM_Ring64Stream(benchmark::State& state) {
  constexpr u32 kNodes = 64;
  constexpr u32 kWords = 64;
  u64 bytes = 0;
  std::vector<u32> block(kWords, 0xC3C3C3C3u);
  for (auto _ : state) {
    sim::Simulation sim;
    scramnet::Ring ring(sim, scramnet::RingConfig{.nodes = kNodes, .bank_words = 1u << 15});
    for (u32 n = 0; n < kNodes; ++n) {
      sim.spawn("host", [&, n](sim::Process& p) {
        scramnet::SimHostPort port(ring, n, p);
        p.delay(ns(73) * (n + 1));  // tie-free staggered start
        for (int i = 0; i < 6; ++i) {
          port.write_block(n * 512, block);
          p.delay(us(2));
        }
      });
    }
    sim.run();
    bytes += u64{kNodes} * 6 * kWords * 4;
  }
  state.counters["bytes/s"] =
      benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Ring64Stream)->Unit(benchmark::kMillisecond);

/// Large-N broadcast sweep: one word written per round, then the packet
/// walks every downstream node of an Arg-node ring on a quiet medium. Every
/// hop is its own host event, so the "events/packet" counter reads N: the
/// injection flush plus N-1 hops. This is the walk's worst case; in the
/// figures, spinning pollers fill the queue between hops anyway.
void BM_RingWalk256(benchmark::State& state) {
  const u32 nodes = static_cast<u32>(state.range(0));
  constexpr int kRounds = 512;
  u64 events = 0, packets = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    scramnet::Ring ring(sim,
                        scramnet::RingConfig{.nodes = nodes, .bank_words = 1u << 12});
    for (int r = 0; r < kRounds; ++r) {
      ring.host_write(static_cast<u32>(r) % nodes, 16, static_cast<u32>(r));
      sim.run();  // quiet ring: one event per downstream hop
    }
    events += sim.events_executed();
    packets += kRounds;
  }
  state.counters["events/packet"] =
      static_cast<double>(events) / static_cast<double>(packets);
  state.counters["packets/s"] =
      benchmark::Counter(static_cast<double>(packets), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RingWalk256)->Arg(64)->Arg(256);

/// Host-side cost of replicating a 1 KiB block write around a 4-node ring.
/// In kFixed4 mode this is the worst case the packet pooling targets: 256
/// one-word packets, each walking 3 downstream nodes.
void BM_RingBlockWrite(benchmark::State& state) {
  const auto mode = state.range(0) == 0 ? scramnet::PacketMode::kFixed4
                                        : scramnet::PacketMode::kVariable;
  constexpr u32 kWords = 256;  // 1 KiB
  u64 bytes = 0;
  std::vector<u32> block(kWords, 0xA5A5A5A5u);
  for (auto _ : state) {
    sim::Simulation sim;
    scramnet::Ring ring(sim, scramnet::RingConfig{
                                 .nodes = 4, .bank_words = 1u << 12, .mode = mode});
    constexpr int kWrites = 64;
    for (int i = 0; i < kWrites; ++i) {
      ring.host_write_block(0, 0, block, ns(240));
      sim.run();
    }
    bytes += u64{kWrites} * kWords * 4;
  }
  state.SetLabel(mode == scramnet::PacketMode::kFixed4 ? "fixed4" : "variable");
  state.counters["bytes/s"] =
      benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RingBlockWrite)->Arg(0)->Arg(1);

/// Ring set-up and teardown with default 4 MiB banks: build a simulation
/// and a ring, replicate one word, destroy both. The per-layer counterpart
/// of perfbench's `scramnet.ring_ctor_ms`; the banks are lazily zeroed, so
/// this grows with the pages touched, not with nodes x 4 MiB.
void BM_RingSetup(benchmark::State& state) {
  const u32 nodes = static_cast<u32>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    scramnet::Ring ring(sim, scramnet::RingConfig{.nodes = nodes});
    ring.host_write(0, 16, 1);
    sim.run();
    benchmark::DoNotOptimize(ring.host_read(nodes - 1, 16));
  }
}
BENCHMARK(BM_RingSetup)->Arg(4)->Arg(256)->Unit(benchmark::kMicrosecond);

/// Set-up and teardown of a simulation shaped like perfbench's
/// `paper_figs` ones: a fresh Simulation, a ring of N nodes with default
/// 4 MiB banks, and one process per node that takes one delay. Its banks
/// and stacks come from the thread's region cache after the first
/// iteration.
void BM_SimSetup(benchmark::State& state) {
  const u32 nodes = static_cast<u32>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    scramnet::Ring ring(sim, scramnet::RingConfig{.nodes = nodes});
    for (u32 n = 0; n < nodes; ++n)
      sim.spawn("rank", [](sim::Process& p) { p.delay(ns(100)); });
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
}
BENCHMARK(BM_SimSetup)->Arg(4)->Unit(benchmark::kMicrosecond);

/// End-to-end simulated BBP ping-pong per wall second.
void BM_BbpPingPongSim(benchmark::State& state) {
  const u32 bytes = static_cast<u32>(state.range(0));
  u64 msgs = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    scramnet::Ring ring(sim, scramnet::RingConfig{.nodes = 2, .bank_words = 1u << 15});
    constexpr int kIters = 50;
    sim.spawn("a", [&](sim::Process& p) {
      scramnet::SimHostPort port(ring, 0, p);
      bbp::Endpoint ep(port, 2, 0);
      std::vector<u8> msg(bytes), buf(std::max<u32>(bytes, 4));
      for (int i = 0; i < kIters; ++i) {
        (void)ep.send(1, msg);
        (void)ep.recv(1, buf);
      }
      ep.drain();
    });
    sim.spawn("b", [&](sim::Process& p) {
      scramnet::SimHostPort port(ring, 1, p);
      bbp::Endpoint ep(port, 2, 1);
      std::vector<u8> msg(bytes), buf(std::max<u32>(bytes, 4));
      for (int i = 0; i < kIters; ++i) {
        (void)ep.recv(0, buf);
        (void)ep.send(0, msg);
      }
      ep.drain();
    });
    sim.run();
    msgs += 2 * 50;
  }
  state.counters["msgs/s"] =
      benchmark::Counter(static_cast<double>(msgs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BbpPingPongSim)->Arg(4)->Arg(1024);

/// Full MPI stack over the simulated ring with the zero-copy rendezvous
/// path forced on (billboard window + low eager cap): the wall-clock cost
/// of reproducing the large-message figures. Arg = payload bytes; 256
/// stays under the cap (eager control), 16384 rides RTS -> CTS(placement)
/// -> ring put -> FIN with no channel-packet copy.
void BM_RendezvousPingPong(benchmark::State& state) {
  const u32 bytes = static_cast<u32>(state.range(0));
  u64 msgs = 0;
  harness::ScramnetOptions opts;
  opts.ring.bank_words = 1u << 18;
  opts.bbp.rndv_window_bytes = 64 * 1024;
  opts.mpi.eager_cap = 256;
  for (auto _ : state) {
    constexpr int kIters = 20;
    harness::run_scramnet_mpi(
        2,
        [&](sim::Process&, scrmpi::Mpi& mpi) {
          const scrmpi::Comm& w = mpi.world();
          std::vector<u8> msg(bytes), buf(bytes);
          if (mpi.rank(w) == 0) {
            for (int i = 0; i < kIters; ++i) {
              (void)mpi.send(msg.data(), bytes, scrmpi::Datatype::kByte, 1, 0, w);
              (void)mpi.recv(buf.data(), bytes, scrmpi::Datatype::kByte, 1, 0, w);
            }
          } else {
            for (int i = 0; i < kIters; ++i) {
              (void)mpi.recv(buf.data(), bytes, scrmpi::Datatype::kByte, 0, 0, w);
              (void)mpi.send(msg.data(), bytes, scrmpi::Datatype::kByte, 0, 0, w);
            }
          }
        },
        opts);
    msgs += 2 * kIters;
  }
  state.counters["msgs/s"] =
      benchmark::Counter(static_cast<double>(msgs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RendezvousPingPong)->Arg(256)->Arg(16384);

/// One-way latency measurements end to end through the harness: one
/// simulation of 24 ping-pong round trips of Arg bytes per iteration.
/// Eager MPI over ch_bbp and over ch_sock time the ADI's wait through each
/// device's spin hook; the sockets API times the TCP model alone.
void BM_MpiScramnetOneway(benchmark::State& state) {
  const u32 bytes = static_cast<u32>(state.range(0));
  double oneway = 0;
  for (auto _ : state) {
    oneway = harness::mpi_scramnet_oneway_us(bytes);
    benchmark::DoNotOptimize(oneway);
  }
  state.counters["oneway_us"] = oneway;
}
BENCHMARK(BM_MpiScramnetOneway)->Arg(4);

void BM_MpiTcpOneway(benchmark::State& state) {
  const u32 bytes = static_cast<u32>(state.range(0));
  double oneway = 0;
  for (auto _ : state) {
    oneway = harness::mpi_tcp_oneway_us(harness::TcpFabricKind::kFastEthernet, bytes);
    benchmark::DoNotOptimize(oneway);
  }
  state.counters["oneway_us"] = oneway;
}
BENCHMARK(BM_MpiTcpOneway)->Arg(4);

void BM_TcpApiOneway(benchmark::State& state) {
  const u32 bytes = static_cast<u32>(state.range(0));
  double oneway = 0;
  for (auto _ : state) {
    oneway = harness::tcp_api_oneway_us(harness::TcpFabricKind::kFastEthernet, bytes);
    benchmark::DoNotOptimize(oneway);
  }
  state.counters["oneway_us"] = oneway;
}
BENCHMARK(BM_TcpApiOneway)->Arg(4);

/// A 4-node MPI_Bcast of range(0) bytes over ch_bbp: native multicast
/// (range(1) = 1, the paper's single BBP multicast) or the binomial tree
/// of point-to-point sends (range(1) = 0).
void BM_MpiScramnetBcast(benchmark::State& state) {
  const u32 bytes = static_cast<u32>(state.range(0));
  const auto algo = state.range(1) ? scrmpi::CollAlgo::kNativeMcast : scrmpi::CollAlgo::kBinomial;
  double bcast = 0;
  for (auto _ : state) {
    bcast = harness::mpi_scramnet_bcast_us(bytes, algo);
    benchmark::DoNotOptimize(bcast);
  }
  state.counters["bcast_us"] = bcast;
}
BENCHMARK(BM_MpiScramnetBcast)->Args({64, 1})->Args({64, 0});

/// RDMA NIC model put throughput at the fabric level: one registered
/// region, back-to-back puts (chunked at the MTU), each awaited on its
/// CQE the way ch_rdma's bounded wait does. Arg = bytes per put.
void BM_RdmaPut(benchmark::State& state) {
  const u32 bytes = static_cast<u32>(state.range(0));
  u64 total = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    netmodels::RdmaFabric fab(sim, 2);
    std::vector<u8> dst(bytes), src(bytes, 0x5A);
    const u32 rkey = fab.register_region(1, dst);
    constexpr int kPuts = 50;
    sim.spawn("initiator", [&](sim::Process& p) {
      for (int i = 0; i < kPuts; ++i) {
        fab.rdma_put(0, rkey, 0, src, static_cast<u64>(i));
        p.spin_until("bench.cq", 0, [&] { return fab.cq(0).try_pop().has_value(); },
                     [&] { p.delay(us(1)); });
      }
    });
    sim.run();
    total += static_cast<u64>(kPuts) * bytes;
  }
  state.counters["bytes/s"] =
      benchmark::Counter(static_cast<double>(total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RdmaPut)->Arg(4096)->Arg(65536);

/// Figure-style latency sweep through sweep::Runner::map at 1..N threads:
/// the wall-clock win the parallel sweep engine buys on this machine. Arg
/// is the job count; compare jobs=1 (the caller alone) against the rest.
void BM_SweepFigures(benchmark::State& state) {
  const u32 jobs = static_cast<u32>(state.range(0));
  const std::vector<u32> sizes{0, 4, 16, 64, 256, 512, 750, 1000};
  u64 sims = 0;
  for (auto _ : state) {
    sweep::Runner runner(jobs);
    const auto us = runner.map("bbp_oneway", sizes, [](u32 b) {
      return harness::bbp_oneway_us(b, 4, 8, 2);
    });
    benchmark::DoNotOptimize(us.data());
    sims += sizes.size();
  }
  state.counters["sims/s"] =
      benchmark::Counter(static_cast<double>(sims), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepFigures)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

/// Sweep overhead floor: tiny elements (one near-empty simulation each), so
/// thread start, index claiming and per-element sinks dominate instead of
/// the simulations.
void BM_SweepThroughput(benchmark::State& state) {
  const u32 jobs = static_cast<u32>(state.range(0));
  u64 done = 0;
  for (auto _ : state) {
    sweep::Runner runner(jobs);
    const std::vector<int> elements(256);
    const std::vector<u64> events = runner.map("job", elements, [](int) {
      sim::Simulation sim;
      int remaining = 16;
      struct Tick {
        sim::Simulation* sim;
        int* remaining;
        void operator()() const {
          if (--*remaining > 0) sim->post(ns(10), *this);
        }
      };
      sim.post(ns(10), Tick{&sim, &remaining});
      sim.run();
      return sim.events_executed();
    });
    for (u64 e : events) done += e ? 1 : 0;
  }
  state.counters["jobs/s"] =
      benchmark::Counter(static_cast<double>(done), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepThroughput)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
