// Tests for the fiber process scheduler: spawn/teardown at scale, exception
// and cancellation unwinding, report-text stability, stack-pool recycling,
// run-twice determinism, delays that resume in place, and teardown and
// run_until with one or several processes live at once. Everything here must pass identically on both fiber switch
// backends (asm and ucontext).
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "sim/mailbox.h"
#include "sim/simulation.h"

namespace scrnet::sim {
namespace {

TEST(SimProcess, StressSpawnThousandProcesses) {
  Simulation sim;
  constexpr u32 kProcs = 1200;
  u64 total_hops = 0;
  Signal barrier(sim);
  u32 arrived = 0;
  for (u32 i = 0; i < kProcs; ++i) {
    sim.spawn(std::string("p").append(std::to_string(i)), [&, i](Process& p) {
      for (u32 k = 0; k < 5; ++k) p.delay(ns(10 + i % 7));
      ++total_hops;
      if (++arrived == kProcs) {
        barrier.notify_all();
      } else {
        barrier.wait(p);
      }
    });
  }
  sim.run();
  EXPECT_EQ(total_hops, kProcs);
  EXPECT_EQ(sim.live_processes(), 0u);
}

// The body throws from several frames deep; the exception must unwind the
// process stack (running destructors) and surface as ProcessError with a
// stable message.
struct DtorFlag {
  bool* flag;
  explicit DtorFlag(bool* f) : flag(f) {}
  ~DtorFlag() { *flag = true; }
};

void throw_at_depth(int n, bool* flag) {
  DtorFlag guard(flag);
  if (n == 0) throw std::runtime_error("bad thing");
  throw_at_depth(n - 1, flag);
}

TEST(SimProcess, ExceptionFromDeepFrameUnwindsAndPropagates) {
  Simulation sim;
  bool unwound = false;
  sim.spawn("boom", [&](Process& p) {
    p.delay(us(1));
    throw_at_depth(16, &unwound);
  });
  try {
    sim.run();
    FAIL() << "expected ProcessError";
  } catch (const ProcessError& e) {
    EXPECT_STREQ(e.what(), "process 'boom' failed: bad thing");
  }
  EXPECT_TRUE(unwound);
  EXPECT_EQ(sim.live_processes(), 0u);
}

// Destroying a Simulation while a process is parked must unwind that
// process's stack so RAII cleanup in the body runs (the fiber backend
// injects the same cancellation exception the thread backend uses).
TEST(SimProcess, TeardownUnwindsParkedProcessStacks) {
  bool cleaned_up = false;
  {
    Simulation sim;
    auto* sig = new Signal(sim);  // leaked on purpose: outlives the park
    sim.spawn("parked", [&cleaned_up, sig](Process& p) {
      DtorFlag guard(&cleaned_up);
      sig->wait(p);  // never notified
    });
    EXPECT_THROW(sim.run(), DeadlockError);
    EXPECT_FALSE(cleaned_up);  // still parked after the failed run
    delete sig;                // process no longer touches it once cancelled
  }
  EXPECT_TRUE(cleaned_up);
}

TEST(SimProcess, TeardownOfNeverRunProcessIsClean) {
  // Spawned but run() never called: the body must not execute at all.
  bool ran = false;
  {
    Simulation sim;
    sim.spawn("idle", [&](Process&) { ran = true; });
  }
  EXPECT_FALSE(ran);
}

TEST(SimProcess, DeadlockReportTextIsStable) {
  Simulation sim;
  Signal sig(sim);
  sim.spawn("alpha", [&](Process& p) { sig.wait(p); });
  sim.spawn("beta", [&](Process& p) { sig.wait(p); });
  try {
    sim.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_STREQ(e.what(),
                 "simulation deadlock: 2 process(es) parked with no pending "
                 "events: alpha, beta");
  }
}

TEST(SimProcess, SpawnFromRunningProcessOrdering) {
  // A child spawned mid-run is scheduled at the parent's current time but
  // behind already-queued events; the parent keeps running until it blocks.
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn("parent", [&](Process& p) {
    p.delay(us(1));
    p.simulation().spawn("child", [&](Process& c) {
      log.push_back("child@" + std::to_string(c.now()));
      c.delay(us(1));
      log.push_back("child-done@" + std::to_string(c.now()));
    });
    log.push_back("parent-after-spawn@" + std::to_string(p.now()));
    p.yield();
    log.push_back("parent-after-yield@" + std::to_string(p.now()));
  });
  sim.run();
  const std::vector<std::string> want = {
      "parent-after-spawn@" + std::to_string(us(1)),
      "child@" + std::to_string(us(1)),
      "parent-after-yield@" + std::to_string(us(1)),
      "child-done@" + std::to_string(us(2)),
  };
  EXPECT_EQ(log, want);
}

TEST(SimProcess, StackPoolRecyclesAcrossSequentialLifetimes) {
  // 64 processes whose lifetimes never overlap: one mmap'd stack must
  // serve all of them, every later acquire coming from the free list.
  Simulation sim;
  constexpr u32 kProcs = 64;
  u32 done = 0;
  for (u32 i = 0; i < kProcs; ++i) {
    sim.post(us(10 * (i + 1)), [&sim, &done] {
      sim.spawn("seq", [&done](Process& p) {
        p.delay(ns(100));
        ++done;
      });
    });
  }
  sim.run();
  EXPECT_EQ(done, kProcs);
  const auto st = sim.stack_stats();
  EXPECT_EQ(st.mapped, 1u);
  EXPECT_EQ(st.reused, kProcs - 1);
  EXPECT_EQ(st.live, 0u);
  EXPECT_EQ(st.pooled, 1u);
}

TEST(SimProcess, StackPoolTracksConcurrentHighWater) {
  // All processes alive at once: every one needs its own stack, and all
  // stacks return to the pool at exit.
  Simulation sim;
  constexpr u32 kProcs = 16;
  for (u32 i = 0; i < kProcs; ++i) {
    sim.spawn(std::string("c").append(std::to_string(i)),
              [](Process& p) { p.delay(us(1)); });
  }
  sim.run();
  const auto st = sim.stack_stats();
  EXPECT_EQ(st.mapped, kProcs);
  EXPECT_EQ(st.live, 0u);
  EXPECT_EQ(st.pooled, kProcs);
}

TEST(SimProcess, StackSizeKnobIsPageRoundedAndUsable) {
  detail::StackPool pool(90 * 1024);  // not page-aligned on purpose
  EXPECT_GE(pool.stack_bytes(), 90u * 1024);
  EXPECT_EQ(pool.stack_bytes() % 4096, 0u);
  // Burn a deep frame on a default process stack to prove it is there.
  Simulation sim;
  u64 sum = 0;
  sim.spawn("deep", [&](Process& p) {
    p.delay(ns(1));
    volatile u8 buf[64 * 1024];
    for (u32 i = 0; i < sizeof(buf); i += 512) buf[i] = static_cast<u8>(i);
    sum += u64{buf[0]} + buf[sizeof(buf) - 512];
  });
  sim.run();
  EXPECT_EQ(sim.live_processes(), 0u);
}

// Run-twice determinism for the scheduler specifically (mirrors
// sim_queue_test.cc): a mixed workload of delays, signals, timeouts, and
// mid-run spawns must produce an identical timestamped trace.
std::vector<std::string> scheduler_trace() {
  Simulation sim;
  std::vector<std::string> trace;
  auto stamp = [&trace](Process& p, const char* what) {
    trace.push_back(p.name() + ":" + what + "@" + std::to_string(p.now()));
  };
  Signal sig(sim);
  Mailbox<u32> box(sim);
  sim.spawn("producer", [&](Process& p) {
    for (u32 i = 0; i < 20; ++i) {
      p.delay(ns(130 + 17 * (i % 5)));
      box.push(i);
      if (i % 3 == 0) sig.notify_one();
    }
    stamp(p, "done");
  });
  sim.spawn("consumer", [&](Process& p) {
    for (u32 i = 0; i < 20; ++i) {
      const u32 v = box.pop(p);
      if (v == 7) {
        p.simulation().spawn("late", [&](Process& q) {
          q.delay(ns(55));
          stamp(q, "fired");
        });
      }
    }
    stamp(p, "done");
  });
  sim.spawn("poller", [&](Process& p) {
    u32 hits = 0;
    while (hits < 7) {
      if (sig.wait_for(p, ns(400))) ++hits;
    }
    stamp(p, "done");
  });
  sim.run();
  return trace;
}

TEST(SimProcess, RunTwiceDeterminism) {
  const auto a = scheduler_trace();
  const auto b = scheduler_trace();
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
}

TEST(SimProcess, LoneProcessDelaysRunInPlaceWithTheirCounts) {
  // Nothing else is queued, so every delay resumes in place. The spawn's
  // first dispatch and each delay still post and execute one event each,
  // exactly as when every resume went through the queue.
  constexpr u64 kDelays = 100;
  Simulation sim;
  sim.spawn("lone", [](Process& p) {
    for (u64 i = 0; i < kDelays; ++i) p.delay(ns(5));
  });
  sim.run();
  EXPECT_EQ(sim.events_executed(), kDelays + 1);
  EXPECT_EQ(sim.queue_stats().posted, kDelays + 1);
  EXPECT_EQ(sim.queue_stats().max_calendar, 1u);
  EXPECT_EQ(sim.resumes_in_place(), kDelays);
  EXPECT_EQ(sim.now(), ns(5) * kDelays);
}

// -- one or several processes live side by side -----------------------------

// Each case runs with four processes, whose resumes tie at every tick, so
// every resume goes through the queue and a fiber switch, and with one,
// whose every tick resumes in place (Process::delay).

TEST(SimParallel, TeardownUnwindsFibersOnAllShards) {
  // Destroy the simulation while the processes are still mid-flight; each
  // fiber must unwind (destructors run) with no leaks or deadlocks.
  // `unwound` counts destructor executions on process stacks.
  struct OnUnwind {
    int* n;
    ~OnUnwind() { ++*n; }
  };
  for (const u32 procs : {4u, 1u}) {
    SCOPED_TRACE(testing::Message() << procs << " process(es)");
    int unwound = 0;
    {
      Simulation sim;
      for (u32 s = 0; s < procs; ++s) {
        sim.spawn("sleeper" + std::to_string(s), [&unwound](Process& p) {
          OnUnwind guard{&unwound};
          for (;;) p.delay(us(1));  // never finishes on its own
        });
      }
      EXPECT_TRUE(sim.run_until(us(5)));  // all processes mid-flight
      EXPECT_EQ(sim.now(), us(5));
      EXPECT_EQ(sim.resumes_in_place(), procs == 1 ? 5u : 0u);
    }
    EXPECT_EQ(unwound, static_cast<int>(procs));
  }
}

TEST(SimParallel, RunUntilStopsAtBoundaryOnEveryShard) {
  // Independent tickers stop at the same run_until boundary: each has
  // ticked exactly 100 us / 500 ns times, none more, and the tick that
  // would pass the boundary waits in the queue for the next run.
  for (const u32 procs : {4u, 1u}) {
    SCOPED_TRACE(testing::Message() << procs << " process(es)");
    Simulation sim;
    std::vector<u64> ticks(procs, 0);
    for (u32 s = 0; s < procs; ++s) {
      sim.spawn("ticker" + std::to_string(s), [&ticks, s](Process& p) {
        for (int i = 0; i < 1000; ++i) {
          p.delay(ns(500));
          ++ticks[s];
        }
      });
    }
    EXPECT_TRUE(sim.run_until(us(100)));
    for (u32 s = 0; s < procs; ++s) EXPECT_EQ(ticks[s], 200u) << "ticker " << s;
    EXPECT_EQ(sim.now(), us(100));
    EXPECT_EQ(sim.resumes_in_place(), procs == 1 ? 200u : 0u);
    sim.run();
    for (u32 s = 0; s < procs; ++s) EXPECT_EQ(ticks[s], 1000u) << "ticker " << s;
    EXPECT_EQ(sim.now(), us(500));
  }
}

}  // namespace
}  // namespace scrnet::sim
