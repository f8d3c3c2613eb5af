// sweep::Runner: work-stealing pool correctness and the bit-identical
// determinism contract. The stress cases deliberately run multi-fiber
// simulations on many worker threads at once -- the exact configuration
// the ThreadSanitizer CI job checks (the fibers carry TSan annotations, so
// TSan follows every process body across context switches).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/benchops.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "sweep/runner.h"

namespace scrnet {
namespace {

using sweep::Runner;

TEST(Runner, InlineWhenJobsIsOne) {
  Runner r(1);
  EXPECT_EQ(r.jobs(), 1u);
  auto f = r.submit([] { return 42; });
  // jobs==1 runs at submit time, so the future is ready before get().
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.get(), 42);
}

TEST(Runner, ResultsArriveInSubmissionOrder) {
  Runner r(4);
  std::vector<sweep::Future<int>> futs;
  for (int i = 0; i < 32; ++i)
    futs.push_back(r.submit([i] { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[i].get(), i * i);
}

TEST(Runner, ExceptionsRethrowAtGet) {
  Runner r(2);
  auto ok = r.submit([] { return 1; });
  auto bad = r.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(ok.get(), 1);
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(Runner, DestructorDrainsOutstandingWork) {
  std::atomic<int> ran{0};
  {
    Runner r(4);
    for (int i = 0; i < 64; ++i)
      (void)r.submit([&ran] { return ++ran; });
    // Futures dropped on the floor: the destructor must still run all 64.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(Runner, MapPreservesElementOrder) {
  Runner r(4);
  const std::vector<u32> xs{5, 3, 9, 1, 7, 2, 8};
  const auto ys = r.map("sq", xs, [](u32 x) { return x * x; });
  ASSERT_EQ(ys.size(), xs.size());
  for (usize i = 0; i < xs.size(); ++i) EXPECT_EQ(ys[i], xs[i] * xs[i]);
}

// The determinism contract on real simulations: a latency sweep at jobs=8
// must be byte-identical (exact doubles) to the jobs=1 sequential
// baseline, regardless of completion order.
TEST(SweepDeterminism, ParallelMatchesSequentialBitExact) {
  const std::vector<u32> sizes{0, 4, 16, 64, 256};
  Runner seq(1), par(8);
  const auto a = harness::bbp_oneway_us_sweep(sizes, seq, 4, 4, 1);
  const auto b = harness::bbp_oneway_us_sweep(sizes, par, 4, 4, 1);
  ASSERT_EQ(a.size(), b.size());
  for (usize i = 0; i < a.size(); ++i) {
    // Bit-exact, not approximately equal.
    EXPECT_EQ(a[i], b[i]) << "size index " << i;
  }
}

// Shuffled heterogeneous workload: big jobs submitted first so completion
// order inverts submission order on a multi-worker pool, exercising the
// steal path. Results must still come back in submission order.
TEST(SweepDeterminism, CompletionOrderInversionIsInvisible) {
  std::vector<u32> sizes{1000, 750, 512, 256, 64, 16, 4, 0};
  Runner seq(1), par(8);
  const auto a = harness::bbp_oneway_us_sweep(sizes, seq, 4, 4, 1);
  const auto b = harness::bbp_oneway_us_sweep(sizes, par, 4, 4, 1);
  for (usize i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// 64 multi-fiber simulations over 8 workers. Each job spins up a 4-node
// cluster (dozens of fibers and their thread_local switch state) -- the
// stress case for rule 2 of the determinism contract.
TEST(SweepDeterminism, StressManyJobsFewWorkers) {
  std::vector<u32> sizes;
  for (u32 i = 0; i < 64; ++i) sizes.push_back((i % 16) * 32);
  Runner seq(1), par(8);
  const auto a = harness::bbp_oneway_us_sweep(sizes, seq, 4, 2, 1);
  const auto b = harness::bbp_oneway_us_sweep(sizes, par, 4, 2, 1);
  ASSERT_EQ(a.size(), 64u);
  for (usize i = 0; i < 64; ++i) EXPECT_EQ(a[i], b[i]) << "job " << i;
}

// Each job gets a private obs sink: events recorded inside a job are
// invisible to the global sink and to sibling jobs.
TEST(SweepSinks, PerRunSinkIsolation) {
  obs::Tracer::global().clear();
  obs::Tracer::global().enable(true);
  Runner r(4);
  std::vector<sweep::Future<usize>> futs;
  for (int i = 0; i < 16; ++i)
    futs.push_back(r.submit("iso", [] {
      obs::Tracer::current().instant(obs::Layer::kSim, 0, "in-job", 0);
      // Exactly the events this job wrote, nobody else's.
      return obs::Tracer::current().events();
    }));
  for (auto& f : futs) EXPECT_EQ(f.get(), 1u);
  EXPECT_EQ(obs::Tracer::global().events(), 0u);
  obs::Tracer::global().enable(false);
}

// Labeled sinks flush to "<base>.<label>" so two concurrently finishing
// runs can never interleave one JSON document.
TEST(SweepSinks, LabeledFlushWritesSuffixedFile) {
  obs::Tracer::global().enable(true);
  obs::Sink sink("flushcheck-0001");
  {
    obs::Sink::Scope scope(sink);
    obs::Tracer::current().instant(obs::Layer::kSim, 0, "evt", 0);
  }
  const std::string base = ::testing::TempDir() + "sweep_trace.json";
  ASSERT_TRUE(sink.flush_trace_to(base));
  const std::string path = base + ".flushcheck-0001";
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << path;
  std::fclose(f);
  std::remove(path.c_str());
  obs::Tracer::global().enable(false);
}

// A simulation constructed inside a job publishes into that job's sink
// (Simulation captures Sink::current() at construction).
TEST(SweepSinks, SimulationBindsToJobSink) {
  Runner r(2);
  auto f = r.submit("bind", [] {
    sim::Simulation sim;
    return &sim.sink() == &obs::Sink::current() &&
           !obs::Sink::current().is_global();
  });
  EXPECT_TRUE(f.get());
  // Outside any job, new simulations bind to the global sink.
  sim::Simulation sim;
  EXPECT_TRUE(&sim.sink() == &obs::Sink::global());
}

}  // namespace
}  // namespace scrnet
