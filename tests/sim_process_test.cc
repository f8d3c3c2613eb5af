// Tests for the fiber process scheduler: spawn/teardown at scale, exception
// and cancellation unwinding, report-text stability, stack recycling,
// run-twice determinism, delays that resume in place, and teardown and
// run_until with one or several processes live at once. Everything here must pass identically on both fiber switch
// backends (asm and ucontext).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "sim/mailbox.h"
#include "sim/mapping.h"
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
TEST(SimProcess, NonStandardExceptionFailsTheRunAsUnknown) {
  Simulation sim;
  sim.spawn("thrower", [](Process&) { throw 42; });
  try {
    sim.run();
    FAIL() << "run() returned";
  } catch (const ProcessError& e) {
    EXPECT_STREQ(e.what(), "process 'thrower' failed: unknown exception");
  }
}

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

// The stack counts are per simulation, over a cache the thread keeps
// across simulations: a test that runs after others in one process (as
// the TSan job runs this binary) may find it warm, so none assumes it
// cold.

TEST(SimProcess, StackPoolRecyclesAcrossSequentialLifetimes) {
  // 64 processes whose lifetimes never overlap: one stack serves all of
  // them. It is mapped here only if the cache held none.
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
  EXPECT_LE(st.mapped, 1u);
  EXPECT_EQ(st.mapped + st.reused, kProcs);
  EXPECT_EQ(st.live, 0u);
}

TEST(SimProcess, StackPoolTracksConcurrentHighWater) {
  // All processes alive at once: every one holds a stack of its own, and
  // all of them go back at exit.
  Simulation sim;
  constexpr u32 kProcs = 16;
  usize high_water = 0;
  for (u32 i = 0; i < kProcs; ++i) {
    sim.spawn(std::string("c").append(std::to_string(i)), [&high_water](Process& p) {
      p.delay(us(1));
      high_water = std::max(high_water, p.simulation().stack_stats().live);
    });
  }
  sim.run();
  const auto st = sim.stack_stats();
  EXPECT_EQ(high_water, kProcs);
  EXPECT_EQ(st.mapped + st.reused, kProcs);
  EXPECT_EQ(st.live, 0u);
}

TEST(SimProcess, SecondSimulationOnAWarmCacheMapsNoStacks) {
  // The thread keeps up to 16 stacks past the simulation that released
  // them, so the next simulation of 16 concurrent processes maps none.
  constexpr u32 kProcs = 16;
  for (int round = 0; round < 2; ++round) {
    Simulation sim;
    for (u32 i = 0; i < kProcs; ++i)
      sim.spawn(std::string("w").append(std::to_string(i)), [](Process& p) { p.delay(us(1)); });
    sim.run();
    if (round == 0) continue;
    EXPECT_EQ(sim.stack_stats().mapped, 0u);
    EXPECT_EQ(sim.stack_stats().reused, kProcs);
  }
}

TEST(SimProcessDeathTest, CachedStackStillFaultsBelowItsLimit) {
  // A stack given back and taken again comes from the cache (the one just
  // given back), and its guard page is still PROT_NONE.
  detail::StackPool pool;
  const detail::FiberStack first = pool.acquire();
  pool.release(first);
  const detail::FiberStack again = pool.acquire();
  ASSERT_EQ(again.base, first.base);
  volatile char* below = static_cast<char*>(again.limit()) - 1;
  EXPECT_DEATH(*below = 1, "");
  pool.release(again);
}

TEST(SimProcess, StackSizeIsPageRoundedAndUsable) {
  detail::StackPool pool;
  const detail::FiberStack s = pool.acquire();
  EXPECT_EQ(s.usable_bytes(), detail::kProcStackBytes);
  EXPECT_EQ(s.usable_bytes() % page_bytes(), 0u);
  EXPECT_EQ(s.guard_bytes, page_bytes());
  pool.release(s);
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

// -- spin_until: the one polling primitive and its livelock rule -------------

/// One pass samples `flag`, then spends 300 ns on the rest of its work;
/// the pause between passes is 200 ns, so pass k starts at k * 500 ns.
bool spin_on(Process& p, const bool& flag, SimTime deadline = 0,
             const char* site = "test.flag") {
  return p.spin_until(
      site, deadline,
      [&] {
        const bool seen = flag;
        p.delay(ns(300));
        return seen;
      },
      [&] { p.delay(ns(200)); });
}

/// The text of the DeadlockError that `sim.run()` throws ("" if none).
std::string livelock_report(Simulation& sim) {
  try {
    sim.run();
  } catch (const DeadlockError& e) {
    return e.what();
  }
  return "";
}

TEST(SimSpin, LoneSpinnerIsALivelockAfterOneQuietPass) {
  // The spawn is the last event that is not a spin resume; the first pass
  // begins after it and fails, and nothing is queued: run() ends there.
  Simulation sim;
  const bool never = false;
  sim.spawn("spinner", [&](Process& p) {
    spin_on(p, never);
    ADD_FAILURE() << "the spin cannot end";
  });
  EXPECT_EQ(livelock_report(sim),
            "simulation livelock at 0.300 us: 1 process(es) spinning on state "
            "that can no longer change: spinner (test.flag)");
  EXPECT_EQ(sim.now(), ns(300));
  EXPECT_EQ(sim.spin_resumes(), 1u);
}

TEST(SimSpin, SpinnerWokenByTheLastQueuedEventFinishes) {
  // Every pass before 9.9 us fails quietly, but the event that sets the
  // flag is still queued, so none of them ends the run. The flag lands
  // during the pause after the pass at 9.5 us; the pass at 10 us sees it.
  Simulation sim;
  bool flag = false;
  sim.post(ns(9900), [&] { flag = true; });
  SimTime done = 0;
  sim.spawn("spinner", [&](Process& p) {
    EXPECT_TRUE(spin_on(p, flag));
    done = p.now();
  });
  sim.run();
  EXPECT_EQ(done, ns(10300));
  EXPECT_EQ(sim.spin_resumes(), 21u + 20u);  // 21 passes, 20 pauses
}

TEST(SimSpin, PassThatStraddledTheWakingEventIsNotQuiet) {
  // The flag lands at 10.05 us, inside the pass that sampled it at 10 us.
  // That pass fails after the last queued event ran, but it began before
  // it, so it proves nothing: the next pass sees the flag.
  Simulation sim;
  bool flag = false;
  sim.post(ns(10050), [&] { flag = true; });
  SimTime done = 0;
  sim.spawn("spinner", [&](Process& p) {
    EXPECT_TRUE(spin_on(p, flag));
    done = p.now();
  });
  sim.run();
  EXPECT_EQ(done, ns(10800));
}

TEST(SimSpin, EverySpinnerNeedsAQuietPassAfterTheLastOtherEvent) {
  // a's passes from 0 us are quiet, but b's first resume at 1 us is an
  // event of its own: the run ends only when both have failed a pass that
  // began after it, at 1.3 us.
  Simulation sim;
  const bool never = false;
  sim.spawn("a", [&](Process& p) { spin_on(p, never); });
  sim.spawn("b", [&](Process& p) {
    p.delay(us(1));
    spin_on(p, never);
  });
  EXPECT_EQ(livelock_report(sim),
            "simulation livelock at 1.300 us: 2 process(es) spinning on state "
            "that can no longer change: a (test.flag), b (test.flag)");
}

TEST(SimSpin, ParkedAndSpinningProcessesAreNamedTogether) {
  Simulation sim;
  Signal sig(sim);
  const bool never = false;
  sim.spawn("waiter", [&](Process& p) { sig.wait(p); });
  sim.spawn("spinner", [&](Process& p) { spin_on(p, never); });
  EXPECT_EQ(livelock_report(sim),
            "simulation livelock at 0.300 us: 1 process(es) spinning on state "
            "that can no longer change: spinner (test.flag); 1 parked: waiter");
}

TEST(SimSpin, NestedSpinIsReportedAtItsInnermostSite) {
  // The outer spin has a deadline, but the inner one never returns to it.
  Simulation sim;
  const bool never = false;
  sim.spawn("nest", [&](Process& p) {
    p.spin_until(
        "test.outer", us(50), [&] { return spin_on(p, never, 0, "test.inner"); },
        [&] { p.delay(ns(200)); });
  });
  EXPECT_EQ(livelock_report(sim),
            "simulation livelock at 0.300 us: 1 process(es) spinning on state "
            "that can no longer change: nest (test.inner)");
}

TEST(SimSpin, SpinWithADeadlineGivesUpInsteadOfLivelocking) {
  // Passes end at k * 500 + 300 ns; the first to end at or past 5 us
  // gives up.
  Simulation sim;
  const bool never = false;
  SimTime gave_up = 0;
  sim.spawn("timed", [&](Process& p) {
    EXPECT_FALSE(spin_on(p, never, us(5)));
    gave_up = p.now();
  });
  sim.run();
  EXPECT_EQ(gave_up, ns(5300));
}

TEST(SimSpin, RunUntilLeavesTheLivelockToRun) {
  // A bounded run returns at its bound (its caller may still post events);
  // run() then ends at the first pass that completes quietly.
  Simulation sim;
  const bool never = false;
  sim.spawn("spinner", [&](Process& p) { spin_on(p, never); });
  EXPECT_TRUE(sim.run_until(us(5)));
  EXPECT_EQ(sim.now(), us(5));
  EXPECT_EQ(livelock_report(sim),
            "simulation livelock at 5.300 us: 1 process(es) spinning on state "
            "that can no longer change: spinner (test.flag)");
}

}  // namespace
}  // namespace scrnet::sim
