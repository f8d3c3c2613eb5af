// sweep::Runner::map: claiming, ordering and exception semantics, and the
// bit-identical determinism contract. The stress cases deliberately run
// multi-fiber simulations on many threads at once -- the exact
// configuration the ThreadSanitizer CI job checks (the fibers carry TSan
// annotations, so TSan follows every process body across context
// switches).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <stdexcept>
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

/// A figure-style latency sweep: one BBP ping-pong simulation per size.
std::vector<double> oneway_sweep(Runner& r, const std::vector<u32>& sizes,
                                 u32 iters) {
  return r.map("bbp_oneway", sizes, [iters](u32 b) {
    return harness::bbp_oneway_us(b, 4, iters, 1);
  });
}

TEST(Runner, ParseJobsTakesBothFlagForms) {
  char prog[] = "bench", jobs[] = "--jobs", three[] = "3", eq[] = "--jobs=5";
  char* split[] = {prog, jobs, three};
  char* joined[] = {prog, eq};
  char* none[] = {prog};
  EXPECT_EQ(sweep::parse_args(3, split).jobs, 3u);
  EXPECT_EQ(sweep::parse_args(2, joined).jobs, 5u);
  EXPECT_EQ(sweep::parse_args(1, none).jobs, 0u);
}

TEST(Args, TakesTheProgramsOwnSwitchesAndOptions) {
  char prog[] = "./bin/tuner", quick[] = "--quick", cc[] = "--cc", file[] = "t.inc",
       eq[] = "--cc=u.inc";
  char* split[] = {prog, cc, file, quick};
  char* joined[] = {prog, eq};
  const sweep::Args a = sweep::parse_args(4, split, {"--cc FILE", "--quick"});
  EXPECT_TRUE(a.has("--quick"));
  EXPECT_STREQ(a.value("--cc"), "t.inc");
  EXPECT_EQ(a.jobs, 0u);
  const sweep::Args b = sweep::parse_args(2, joined, {"--cc FILE", "--quick"});
  EXPECT_FALSE(b.has("--quick"));
  EXPECT_STREQ(b.value("--cc"), "u.inc");
  EXPECT_EQ(b.value("--quick"), nullptr);
}

// Anything else prints the usage line, named after the program, and exits
// 2: an unknown flag, a switch given a value, and --jobs or an option
// without a value or with a count that is not one.
TEST(ArgsDeathTest, RejectsWhatTheProgramDoesNotTake) {
  const auto rejects = [](std::vector<std::string> words) {
    std::vector<char*> argv;
    for (std::string& w : words) argv.push_back(w.data());
    EXPECT_EXIT(sweep::parse_args(static_cast<int>(argv.size()), argv.data(),
                                  {"--large", "--cc FILE"}),
                ::testing::ExitedWithCode(2),
                "usage: abl \\[--jobs N\\] \\[--large\\] \\[--cc FILE\\]")
        << words[1];
  };
  rejects({"/x/abl", "--larg"});
  rejects({"/x/abl", "--large=1"});
  rejects({"/x/abl", "--jobs"});
  rejects({"/x/abl", "--cc"});
  rejects({"/x/abl", "--jobs", "four"});
  rejects({"/x/abl", "--jobs=-1"});
  rejects({"/x/abl", "-j", "2"});
}

// Elements are claimed last first, yet results come back in element
// (submission) order. At jobs 1 the caller alone claims, so the claim
// order is exactly reversed; at jobs 4 every element is claimed once.
TEST(Runner, ResultsArriveInSubmissionOrder) {
  std::vector<int> xs(32);
  std::iota(xs.begin(), xs.end(), 0);
  for (const u32 jobs : {1u, 4u}) {
    Runner r(jobs);
    std::mutex mu;
    std::vector<int> claims;
    const auto ys = r.map("sq", xs, [&](int i) {
      std::lock_guard<std::mutex> lk(mu);
      claims.push_back(i);
      return i * i;
    });
    ASSERT_EQ(ys.size(), xs.size());
    for (usize i = 0; i < xs.size(); ++i)
      EXPECT_EQ(ys[i], xs[i] * xs[i]) << "jobs " << jobs;
    if (jobs == 1) {
      std::vector<int> reversed(xs.rbegin(), xs.rend());
      EXPECT_EQ(claims, reversed);
    }
    std::sort(claims.begin(), claims.end());
    EXPECT_EQ(claims, xs) << "jobs " << jobs;
  }
}

// A throwing element does not cut the sweep short: every other element
// still runs exactly once, and only after the join is the exception of the
// lowest-index throwing element rethrown.
TEST(Runner, ThrowRethrownAfterEveryElementRan) {
  std::vector<int> xs(16);
  std::iota(xs.begin(), xs.end(), 0);
  for (const u32 jobs : {1u, 4u}) {
    Runner r(jobs);
    std::vector<std::atomic<int>> runs(xs.size());
    try {
      (void)r.map("throw", xs, [&](int i) {
        ++runs[static_cast<usize>(i)];
        if (i == 5 || i == 11) throw std::runtime_error(std::to_string(i));
        return i;
      });
      ADD_FAILURE() << "map did not rethrow at jobs " << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "5") << "jobs " << jobs;
    }
    for (usize i = 0; i < runs.size(); ++i)
      EXPECT_EQ(runs[i].load(), 1) << "element " << i << ", jobs " << jobs;
  }
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
  const auto a = oneway_sweep(seq, sizes, 4);
  const auto b = oneway_sweep(par, sizes, 4);
  ASSERT_EQ(a.size(), b.size());
  for (usize i = 0; i < a.size(); ++i) {
    // Bit-exact, not approximately equal.
    EXPECT_EQ(a[i], b[i]) << "size index " << i;
  }
}

// Heterogeneous workload with the big elements first: claimed last first,
// the small ones start first and the big ones finish last, so completion
// order inverts element order. Results must still come back in element
// order.
TEST(SweepDeterminism, CompletionOrderInversionIsInvisible) {
  std::vector<u32> sizes{1000, 750, 512, 256, 64, 16, 4, 0};
  Runner seq(1), par(8);
  const auto a = oneway_sweep(seq, sizes, 4);
  const auto b = oneway_sweep(par, sizes, 4);
  for (usize i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// 64 multi-fiber simulations over 8 threads. Each element spins up a
// 4-node cluster (dozens of fibers and their thread_local switch state) --
// the stress case for rule 2 of the determinism contract.
TEST(SweepDeterminism, StressManyJobsFewWorkers) {
  std::vector<u32> sizes;
  for (u32 i = 0; i < 64; ++i) sizes.push_back((i % 16) * 32);
  Runner seq(1), par(8);
  const auto a = oneway_sweep(seq, sizes, 2);
  const auto b = oneway_sweep(par, sizes, 2);
  ASSERT_EQ(a.size(), 64u);
  for (usize i = 0; i < 64; ++i) EXPECT_EQ(a[i], b[i]) << "job " << i;
}

// Each element gets a private obs sink: events recorded inside an element
// are invisible to the global sink and to sibling elements.
TEST(SweepSinks, PerRunSinkIsolation) {
  obs::Tracer::global().clear();
  obs::Tracer::global().enable(true);
  Runner r(4);
  const std::vector<int> xs(16);
  const auto events = r.map("iso", xs, [](int) {
    obs::Tracer::current().instant(obs::Layer::kSim, 0, "in-job", 0);
    // Exactly the events this element wrote, nobody else's.
    return obs::Tracer::current().events();
  });
  for (usize e : events) EXPECT_EQ(e, 1u);
  EXPECT_EQ(obs::Tracer::global().events(), 0u);
  obs::Tracer::global().enable(false);
}

// Sink labels are numbered in element order, not claim order, so the
// per-run trace/counter file names are the same at any job count.
TEST(SweepSinks, LabelsFormTheSameSequenceAtAnyJobCount) {
  const std::vector<int> xs(12);
  const auto offsets = [&](u32 jobs) {
    Runner r(jobs);
    const auto labels =
        r.map("lbl", xs, [](int) { return obs::Sink::current().label(); });
    std::vector<long> out;
    for (const std::string& l : labels) {
      EXPECT_EQ(l.rfind("lbl-", 0), 0u) << l;
      out.push_back(std::stol(l.substr(4)) - std::stol(labels[0].substr(4)));
    }
    return out;
  };
  std::vector<long> want(xs.size());
  std::iota(want.begin(), want.end(), 0L);
  EXPECT_EQ(offsets(1), want);
  EXPECT_EQ(offsets(4), want);
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

// A simulation constructed inside an element publishes into that element's
// sink (Simulation captures Sink::current() at construction), on the
// caller's thread and on a helper thread alike.
TEST(SweepSinks, SimulationBindsToJobSink) {
  Runner r(2);
  const std::vector<int> xs(2);
  const auto bound = r.map("bind", xs, [](int) {
    sim::Simulation sim;
    return &sim.sink() == &obs::Sink::current() &&
           !obs::Sink::current().is_global();
  });
  EXPECT_TRUE(bound[0]);
  EXPECT_TRUE(bound[1]);
  // Outside any job, new simulations bind to the global sink.
  sim::Simulation sim;
  EXPECT_TRUE(&sim.sink() == &obs::Sink::global());
}

}  // namespace
}  // namespace scrnet
