// Tests for the shared-memory synchronization library (scrshm): Lamport
// bakery mutex, dissemination barrier and single-writer seqlock on
// non-coherent replicated memory, each property checked under 256 seeded
// adversarial timings (seeded_timing.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "scramnet/ring.h"
#include "scramnet/sim_port.h"
#include "scrshm/barrier.h"
#include "scrshm/mutex.h"
#include "scrshm/seqlock.h"
#include "seeded_timing.h"

namespace scrnet::scrshm {
namespace {

using scramnet::MemPort;
using scramnet::Ring;
using scramnet::RingConfig;
using scramnet::SimHostPort;

TEST(Arena, AllocatesAlignedAndBounds) {
  Arena a(100, 20);
  EXPECT_EQ(a.alloc(3), 100u);
  EXPECT_EQ(a.alloc(1, 4), 104u);
  EXPECT_EQ(a.remaining(), 15u);
  EXPECT_THROW(a.alloc(100), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BakeryMutex
// ---------------------------------------------------------------------------

/// Forwards every call to a SimHostPort except fence(), which does
/// nothing: a bakery lock on it runs its doorway unfenced.
class NoFencePort final : public MemPort {
 public:
  explicit NoFencePort(SimHostPort& p) : p_(p) {}
  u32 bank_words() const override { return p_.bank_words(); }
  void write_u32(u32 a, u32 v) override { p_.write_u32(a, v); }
  u32 read_u32(u32 a) override { return p_.read_u32(a); }
  void write_block(u32 a, std::span<const u32> w) override { p_.write_block(a, w); }
  void read_block(u32 a, std::span<u32> out) override { p_.read_block(a, out); }
  void dma_write(u32 a, std::span<const u32> w) override { p_.dma_write(a, w); }
  SimTime now() const override { return p_.now(); }
  u32 peek_u32(u32 a) override { return p_.peek_u32(a); }
  void fence() override {}
  bool spin_until(const char* site, SimTime deadline, sim::FnRef<bool()> ready,
                  scramnet::Backoff backoff, sim::FnRef<void()> stall) override {
    return p_.spin_until(site, deadline, ready, backoff, stall);
  }
  void cpu_delay(SimTime dt) override { p_.cpu_delay(dt); }
  void watch_range(u32 lo, u32 hi) override { p_.watch_range(lo, hi); }
  void wait_write() override { p_.wait_write(); }

 private:
  SimHostPort& p_;
};

/// `n` processes take the bakery lock kIters times each under seed
/// `seed`'s timing, dwelling inside and pausing outside for random times.
/// True when no two were ever in the critical section together (a run
/// where some process cannot finish throws instead).
bool bakery_excludes(u64 seed, u32 n, bool fenced = true) {
  constexpr int kIters = 15;
  seeded::Timing t(seed, n, RingConfig{.nodes = n, .bank_words = 4096});
  sim::Simulation sim;
  Ring ring(sim, t.ring);
  int in_cs = 0, max_in_cs = 0;
  for (u32 id = 0; id < n; ++id) {
    sim.spawn("p" + std::to_string(id), [&, id](sim::Process& p) {
      SimHostPort sim_port(ring, id, p);
      NoFencePort no_fence(sim_port);
      MemPort& port = fenced ? static_cast<MemPort&>(sim_port) : no_fence;
      Arena arena(0, 256);
      BakeryMutex mu(port, arena, n, id);
      t.enter(p, id);
      for (int i = 0; i < kIters; ++i) {
        mu.lock();
        max_in_cs = std::max(max_in_cs, ++in_cs);
        // Dwell across event boundaries so an overlap would be observable.
        p.delay(ns(500) + static_cast<SimTime>(t.rng[id].below(us(5))));
        --in_cs;
        mu.unlock();
        p.delay(static_cast<SimTime>(t.rng[id].below(us(5))));
      }
    });
  }
  sim.run();
  return max_in_cs == 1;
}

class BakeryProcsTest : public ::testing::TestWithParam<u32> {};
INSTANTIATE_TEST_SUITE_P(Procs, BakeryProcsTest, ::testing::Values(2u, 3u, 4u, 5u),
                         [](const auto& ti) { return "n" + std::to_string(ti.param); });

TEST_P(BakeryProcsTest, MutualExclusionInSim) {
  const u32 n = GetParam();
  EXPECT_EQ(seeded::first_failing_seed(256, [&](u64 s) { return bakery_excludes(s, n); }),
            std::nullopt);
}

TEST(Bakery, OverlapWouldHappenWithoutFences) {
  // Control experiment: the same lock with both doorway fences skipped
  // must lose mutual exclusion, so the seeded case above can catch it.
  EXPECT_FALSE(bakery_excludes(1, 3, /*fenced=*/false));
}

TEST(Bakery, HolderThatExitsLockedLivelocksTheWaiter) {
  // p0 takes the lock and exits without unlocking. p1's doorway finds p0's
  // ticket, and p1 spins on it with nothing left that could change it:
  // the run ends as soon as p1 has failed one pass after the last event.
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 4096});
  for (u32 id = 0; id < 2; ++id) {
    sim.spawn("p" + std::to_string(id), [&, id](sim::Process& p) {
      SimHostPort port(ring, id, p);
      Arena arena(0, 64);
      BakeryMutex mu(port, arena, 2, id);
      if (id == 1) p.delay(us(20));  // p0 holds the lock by now
      mu.lock();
      if (id == 1) ADD_FAILURE() << "p1 entered a held lock";
    });
  }
  std::string what;
  try {
    sim.run();
  } catch (const sim::DeadlockError& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "simulation livelock at 25.799 us: 1 process(es) spinning on state "
                  "that can no longer change: p1 (scrshm.bakery.ticket)");
  // The last event is p1's doorway fence returning once its writes settled;
  // then one read of choosing[0] passes and one of number[0] fails.
  const SimTime last_event = std::max(ring.settled_at(0), ring.settled_at(1));
  EXPECT_EQ(sim.now() - last_event, 2 * scramnet::HostTimings::pio_read);
}

TEST(Bakery, HandoffIsFifoByTicket) {
  // Two processes contend; tickets must alternate once both are active --
  // the bakery's bounded-bypass property.
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 4096});
  std::vector<u32> order;
  for (u32 id = 0; id < 2; ++id) {
    sim.spawn("p" + std::to_string(id), [&, id](sim::Process& p) {
      SimHostPort port(ring, id, p);
      Arena arena(0, 64);
      BakeryMutex mu(port, arena, 2, id);
      for (int i = 0; i < 6; ++i) {
        mu.lock();
        order.push_back(id);
        p.delay(us(5));
        mu.unlock();
        p.delay(us(2));
      }
    });
  }
  sim.run();
  // After the initial acquisition, no process may win 3+ times in a row
  // while the other is waiting (bakery grants in ticket order).
  int run = 1;
  int worst = 1;
  for (usize i = 1; i < order.size(); ++i) {
    run = (order[i] == order[i - 1]) ? run + 1 : 1;
    worst = std::max(worst, run);
  }
  EXPECT_LE(worst, 2);
}

// ---------------------------------------------------------------------------
// DisseminationBarrier
// ---------------------------------------------------------------------------

/// `n` processes pass the same barrier `phases` times under seed `seed`'s
/// timing, arriving with random skew. True when nobody ever left a phase
/// before all `n` had arrived in it.
bool barrier_holds(u64 seed, u32 n, u32 phases) {
  seeded::Timing t(seed, n, RingConfig{.nodes = n, .bank_words = 4096});
  sim::Simulation sim;
  Ring ring(sim, t.ring);
  std::vector<u32> arrived(phases, 0);
  bool ok = true;
  for (u32 id = 0; id < n; ++id) {
    sim.spawn("p" + std::to_string(id), [&, id](sim::Process& p) {
      SimHostPort port(ring, id, p);
      Arena arena(0, 1024);
      DisseminationBarrier bar(port, arena, n, id);
      t.enter(p, id);
      for (u32 phase = 0; phase < phases; ++phase) {
        // Every process must still be in `phase` when I am: nobody may
        // have advanced past it before all arrived.
        p.delay(static_cast<SimTime>(t.rng[id].below(us(9))));  // skew arrivals
        ++arrived[phase];
        bar.wait();
        if (arrived[phase] != n) ok = false;  // someone left early
      }
    });
  }
  sim.run();
  return ok;
}

class BarrierProcsTest : public ::testing::TestWithParam<u32> {};
INSTANTIATE_TEST_SUITE_P(Procs, BarrierProcsTest, ::testing::Values(2u, 3u, 4u, 7u, 8u),
                         [](const auto& ti) { return "n" + std::to_string(ti.param); });

TEST_P(BarrierProcsTest, NoProcessEntersNextPhaseEarly) {
  const u32 n = GetParam();
  const auto run = [n](u64 s) { return barrier_holds(s, n, 8); };
  EXPECT_EQ(seeded::first_failing_seed(256, run), std::nullopt);
}

TEST(Barrier, FortyPhasesUnderSeededTiming) {
  // Long reuse of one barrier's flags: each phase must still wait for all.
  const auto run = [](u64 s) { return barrier_holds(s, 4, 40); };
  EXPECT_EQ(seeded::first_failing_seed(256, run), std::nullopt);
}

// ---------------------------------------------------------------------------
// SeqLock
// ---------------------------------------------------------------------------

TEST(SeqLock, SnapshotsAreNeverTorn) {
  // Every snapshot must hold exactly the words its returned version
  // published: in variable mode an 8-word block is one packet, so a reader
  // that skipped the version re-check would see whole blocks, but under
  // the wrong version.
  constexpr u32 kWords = 8;
  constexpr u32 kVersions = 40;
  const auto run = [](u64 seed) {
    seeded::Timing t(seed, 3, RingConfig{.nodes = 3, .bank_words = 4096});
    sim::Simulation sim;
    Ring ring(sim, t.ring);
    u64 snapshots_taken = 0;
    bool ok = true;
    sim.spawn("writer", [&](sim::Process& p) {
      SimHostPort port(ring, 0, p);
      Arena arena(0, 64);
      SeqLock sl(port, arena, kWords, 0);
      t.enter(p, 0);
      for (u32 v = 1; v <= kVersions; ++v) {
        std::vector<u32> data(kWords);
        for (u32 w = 0; w < kWords; ++w) data[w] = v * 1000 + w;  // self-checking
        sl.publish(data);
        p.delay(us(2) + static_cast<SimTime>(t.rng[0].below(us(10))));
      }
    });
    for (u32 id = 1; id < 3; ++id) {
      sim.spawn("reader" + std::to_string(id), [&, id](sim::Process& p) {
        SimHostPort port(ring, id, p);
        Arena arena(0, 64);
        SeqLock sl(port, arena, kWords, 0);
        t.enter(p, id);
        u32 last_version = 0;
        for (u32 i = 0; i < kVersions; ++i) {
          std::vector<u32> out(kWords);
          const u32 ver = sl.snapshot(out);
          if (ver != 0) {  // 0: nothing published yet
            // Version 2v carries publication v.
            for (u32 w = 0; w < kWords; ++w)
              if (out[w] != (ver / 2) * 1000 + w) ok = false;
            if (ver < last_version) ok = false;  // went backwards
            last_version = ver;
            ++snapshots_taken;
          }
          p.delay(us(1) + static_cast<SimTime>(t.rng[id].below(us(5))));
        }
      });
    }
    sim.run();
    return ok && snapshots_taken > 20;
  };
  EXPECT_EQ(seeded::first_failing_seed(256, run), std::nullopt);
}

TEST(SeqLock, TornReadsWouldHappenWithoutIt) {
  // Control experiment: read the same multi-word record without the
  // seqlock protocol while the writer is mid-update -- the reader must be
  // able to observe a torn state (this validates the test methodology).
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 4096});
  bool saw_torn = false;
  sim.spawn("writer", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    for (u32 v = 1; v <= 30; ++v) {
      // Write words one by one (no protocol): window for torn reads.
      for (u32 w = 0; w < 8; ++w) {
        port.write_u32(100 + w, v * 1000 + w);
        p.delay(us(2));
      }
    }
  });
  sim.spawn("reader", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    for (int i = 0; i < 200 && !saw_torn; ++i) {
      u32 first = port.read_u32(100);
      u32 last = port.read_u32(107);
      if (first != 0 && last != 0 && first / 1000 != last / 1000) saw_torn = true;
      p.delay(us(3));
    }
  });
  sim.run();
  EXPECT_TRUE(saw_torn);
}

TEST(SeqLock, VersionProbeAdvances) {
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 4096});
  sim.spawn("writer", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    Arena arena(0, 32);
    SeqLock sl(port, arena, 2, 0);
    const u32 d1[2] = {1, 2};
    sl.publish(d1);
    p.delay(us(50));
    const u32 d2[2] = {3, 4};
    sl.publish(d2);
  });
  sim.spawn("reader", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    Arena arena(0, 32);
    SeqLock sl(port, arena, 2, 0);
    p.delay(us(25));
    const u32 v1 = sl.version();
    p.delay(us(60));
    const u32 v2 = sl.version();
    EXPECT_GT(v2, v1);
    EXPECT_EQ(v1, 2u);
    EXPECT_EQ(v2, 4u);
  });
  sim.run();
}

}  // namespace
}  // namespace scrnet::scrshm
