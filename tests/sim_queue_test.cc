// Regression tests for the bucketed event queue: ordering (total order on
// (time, insertion sequence) across calendar buckets and the overflow heap,
// under fixed and seeded random traffic), the one-pop-per-entry overflow
// migration, the allocation-free guarantee, run_until's time-limit safety
// valve, and bit-reproducibility of a full device-model run.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "scramnet/ring.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace scrnet {
namespace {

// ---------------------------------------------------------------------------
// Ordering
// ---------------------------------------------------------------------------

TEST(EventQueueTest, SameTimestampPopsInInsertionOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  // All at one timestamp, so all in one bucket. Ties must pop in push order.
  for (int i = 0; i < 8; ++i) q.push(ns(100), [&order, i] { order.push_back(i); });
  sim::EventQueue::Popped ev;
  while (q.pop(&ev)) q.run_and_release(ev);
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<usize>(i)], i);
}

TEST(EventQueueTest, SlotKeepsEarlierPushOnTie) {
  sim::EventQueue q;
  std::vector<int> order;
  // A later push at an earlier time pops first; the tie pops in push order.
  q.push(ns(50), [&] { order.push_back(0); });
  q.push(ns(10), [&] { order.push_back(1); });
  q.push(ns(10), [&] { order.push_back(2); });
  sim::EventQueue::Popped ev;
  while (q.pop(&ev)) q.run_and_release(ev);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

/// Posts recording events straight into an EventQueue, numbered in post
/// order, and checks that draining pops them sorted by (t, post order).
/// `on_run` lets an event post follow-ups (at or after its own time) while
/// the queue drains, which is how same-time ties reach a bucket directly.
struct OrderProbe {
  struct Rec {
    SimTime t;
    int id;
  };
  sim::EventQueue q;
  std::vector<Rec> popped;
  int posted = 0;
  std::function<void(SimTime, int)> on_run;

  void post(SimTime t) {
    const int id = posted++;
    q.push(t, [this, t, id] {
      popped.push_back({t, id});
      if (on_run) on_run(t, id);
    });
  }

  void drain_and_expect_order() {
    sim::EventQueue::Popped ev;
    while (q.pop(&ev)) q.run_and_release(ev);
    ASSERT_EQ(popped.size(), static_cast<usize>(posted));
    for (usize i = 1; i < popped.size(); ++i) {
      ASSERT_LE(popped[i - 1].t, popped[i].t) << "time order violated at " << i;
      if (popped[i - 1].t == popped[i].t) {
        ASSERT_LT(popped[i - 1].id, popped[i].id) << "tie order violated at " << i;
      }
    }
    EXPECT_GT(q.stats().overflow_posted, 0u) << "test never exercised overflow";
  }
};

TEST(EventQueueTest, GlobalOrderAcrossBucketsAndOverflow) {
  {
    // Pseudo-random times spanning several bucket windows and the overflow
    // horizon (~33.6 us).
    OrderProbe p;
    u32 lcg = 12345;
    for (int i = 0; i < 2000; ++i) {
      lcg = lcg * 1664525u + 1013904223u;
      // Mix of in-window, same-bucket, and far-overflow times.
      p.post(static_cast<SimTime>(lcg % 3 == 0 ? lcg % 4096 : lcg % 90'000'000u));
    }
    p.drain_and_expect_order();
  }
  {
    // Few migrants from a large heap: a 20K-event monotone run 240 ns apart
    // moves ~140 entries per window advance. Every 7th run event posts two ties
    // with later run events: 2.4 us ahead lands in a bucket beside an entry
    // that migrated from overflow; 36 us ahead lands in overflow beside one
    // posted there at the start.
    constexpr int kRun = 20'000;
    OrderProbe p;
    p.on_run = [&p](SimTime t, int id) {
      if (id < kRun && id % 7 == 0) {
        p.post(t + ns(2400));
        p.post(t + us(36));
      }
    };
    for (int i = 0; i < kRun; ++i) p.post(us(50) + i * ns(240));
    p.drain_and_expect_order();
  }
  {
    // Most of the heap migrating at once: 5000 events on a 10 ns grid inside
    // one 30 us span far past the horizon (many same-time ties among them),
    // plus a tail beyond the span that stays behind. The window jump to the
    // span migrates nearly the whole heap at once. The first event after the
    // jump posts ties with later span events directly into buckets.
    OrderProbe p;
    p.on_run = [&p](SimTime t, int) {
      if (p.popped.size() != 2) return;
      for (int k = 0; k < 300; ++k) p.post(t + k * ns(10));
    };
    u32 lcg = 777;
    for (int i = 0; i < 5000; ++i) {
      lcg = lcg * 1664525u + 1013904223u;
      p.post(us(200) + static_cast<SimTime>((lcg >> 8) % 3000) * ns(10));
    }
    for (int i = 0; i < 200; ++i) p.post(us(240) + i * ns(500));
    p.drain_and_expect_order();
  }
  // Seeded random traffic: every event posts 0-2 follow-ups until 40K posts,
  // each delay drawn from one of five classes: zero, inside one bucket,
  // inside the window, just past the horizon, or up to 5 ms. The bucket
  // width and the horizon are the calendar geometry in event_queue.h.
  constexpr SimTime kBucket = SimTime{1} << 14;
  constexpr SimTime kHorizon = 2048 * kBucket;
  for (u64 seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    OrderProbe p;
    Rng rng(seed);
    const auto delay = [&rng]() -> SimTime {
      switch (rng.below(5)) {
        case 0: return 0;
        case 1: return static_cast<SimTime>(rng.below(kBucket));
        case 2: return static_cast<SimTime>(rng.below(kHorizon));
        case 3: return kHorizon + static_cast<SimTime>(rng.below(kBucket));
        default: return static_cast<SimTime>(rng.below(ms(5)));
      }
    };
    p.on_run = [&](SimTime t, int) {
      for (u64 k = rng.below(3); k > 0 && p.posted < 40'000; --k) p.post(t + delay());
    };
    for (int i = 0; i < 64; ++i) p.post(delay());
    p.drain_and_expect_order();
  }
}

TEST(EventQueueTest, OverflowMigrationCostIsProportionalToMigrants) {
  // A fixed-4 block write's shape: 100K monotone events 240 ns apart, all
  // beyond the horizon, ~140 migrating per window advance. Migration pops
  // each overflow entry exactly once; a full-heap pass per window advance
  // would scan hundreds per entry.
  sim::Simulation simu;
  constexpr int kEvents = 100'000;
  int ran = 0;
  for (int i = 0; i < kEvents; ++i)
    simu.post(us(40) + i * ns(240), [&ran] { ++ran; });
  simu.run();
  EXPECT_EQ(ran, kEvents);
  const auto st = simu.queue_stats();
  EXPECT_GE(st.overflow_posted, u64{kEvents - 1});
  EXPECT_EQ(st.overflow_scanned, st.overflow_posted);
}

TEST(EventQueueTest, ReschedulingAcrossWindowsKeepsOrder) {
  // Self-reposting events that hop past the bucket horizon force window
  // advances and overflow migration while the queue is live.
  sim::Simulation simu;
  SimTime last = -1;
  int count = 0;
  struct Hop {
    sim::Simulation* s;
    SimTime* last;
    int* count;
    int remaining;
    void operator()() const {
      EXPECT_GE(s->now(), *last);
      *last = s->now();
      ++*count;
      if (remaining > 0) s->post(us(40), Hop{s, last, count, remaining - 1});
    }
  };
  simu.post(ns(1), Hop{&simu, &last, &count, 50});
  simu.run();
  EXPECT_EQ(count, 51);
  EXPECT_EQ(simu.now(), ns(1) + 50 * us(40));
}

// ---------------------------------------------------------------------------
// Allocation-free guarantee
// ---------------------------------------------------------------------------

TEST(EventQueueTest, SteadyStateChainDoesNotAllocate) {
  sim::Simulation simu;
  struct Tick {
    sim::Simulation* s;
    int remaining;
    void operator()() const {
      if (remaining > 0) s->post(ns(10), Tick{s, remaining - 1});
    }
  };
  simu.post(ns(10), Tick{&simu, 100000});
  simu.run();
  const auto st = simu.queue_stats();
  EXPECT_EQ(st.posted, 100001u);
  EXPECT_EQ(st.heap_fallback, 0u) << "inline-sized functor hit the heap path";
  EXPECT_EQ(st.inline_stored, st.posted);
  EXPECT_EQ(st.pool_chunks, 1u) << "steady-state chain should reuse one chunk";
}

// Every event is stored inline: push(), post() and post_at() accept only
// callables that fit EventQueue::kInlineBytes and std::max_align_t.
template <usize N>
struct Payload {
  unsigned char bytes[N];
  void operator()() const {}
};
struct alignas(2 * alignof(std::max_align_t)) OverAligned {
  void operator()() const {}
};
template <typename F>
constexpr bool kPushable = requires(sim::EventQueue& q, F f) { q.push(SimTime{1}, f); };
template <typename F>
constexpr bool kPostable = requires(sim::Simulation& s, F f) { s.post(ns(1), f); };
template <typename F>
constexpr bool kPostableAt = requires(sim::Simulation& s, F f) { s.post_at(ns(1), f); };

TEST(EventQueueTest, OversizedCallableDoesNotCompile) {
  using Fits = Payload<sim::EventQueue::kInlineBytes>;
  using Big = Payload<sim::EventQueue::kInlineBytes + 1>;
  static_assert(kPushable<Fits> && kPostable<Fits> && kPostableAt<Fits>);
  static_assert(!kPushable<Big> && !kPostable<Big> && !kPostableAt<Big>);
  static_assert(!kPushable<OverAligned> && !kPostable<OverAligned> &&
                !kPostableAt<OverAligned>);
  static_assert(!kPostable<int>, "not invocable");

  // A callable of exactly kInlineBytes runs from the inline buffer.
  sim::Simulation simu;
  int seen = 0;
  struct Full {
    int* seen;
    unsigned char pad[sim::EventQueue::kInlineBytes - sizeof(int*)];
    void operator()() const { *seen = 7; }
  };
  static_assert(sizeof(Full) == sim::EventQueue::kInlineBytes);
  simu.post(ns(1), Full{&seen, {}});
  simu.run();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(simu.queue_stats().heap_fallback, 0u);
  EXPECT_EQ(simu.queue_stats().inline_stored, 1u);
}

TEST(EventQueueTest, NonTrivialCallableDestroyedWithoutRunning) {
  // Events still queued when the Simulation dies must destroy their
  // captures (shared_ptr refcount observes it).
  auto token = std::make_shared<int>(42);
  {
    sim::Simulation simu;
    simu.post(ns(5), [token] { FAIL() << "never executed"; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// ---------------------------------------------------------------------------
// Time limit (run and run_until)
// ---------------------------------------------------------------------------

TEST(SimulationTimeLimitTest, RunHonorsLimit) {
  sim::Simulation simu;
  simu.set_time_limit(us(1));
  struct Forever {
    sim::Simulation* s;
    void operator()() const { s->post(ns(100), *this); }
  };
  simu.post(ns(100), Forever{&simu});
  EXPECT_THROW(simu.run(), std::runtime_error);
}

TEST(SimulationTimeLimitTest, RunUntilHonorsLimit) {
  // Regression: run_until used to ignore set_time_limit entirely.
  sim::Simulation simu;
  simu.set_time_limit(us(1));
  struct Forever {
    sim::Simulation* s;
    void operator()() const { s->post(ns(100), *this); }
  };
  simu.post(ns(100), Forever{&simu});
  EXPECT_THROW(simu.run_until(ms(1)), std::runtime_error);
  EXPECT_GT(simu.now(), us(1));
  EXPECT_LE(simu.now(), us(1) + ns(100));
}

TEST(SimulationTimeLimitTest, RunUntilStopsAtRequestedTime) {
  sim::Simulation simu;
  int fired = 0;
  simu.post(ns(100), [&] { ++fired; });
  simu.post(us(10), [&] { ++fired; });
  EXPECT_TRUE(simu.run_until(us(1)));   // first event only; work remains
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simu.now(), us(1));
  EXPECT_FALSE(simu.run_until(us(20)));  // drains the rest
  EXPECT_EQ(fired, 2);
}

// ---------------------------------------------------------------------------
// Determinism of a full device-model run
// ---------------------------------------------------------------------------

struct RunResult {
  u64 events;
  SimTime final_now;
  u64 packets;
  u64 words;
  u32 checksum;
};

/// A fig4-style workload: block writes from several nodes, a mid-run link
/// fault on a redundant ring, and interrupt handlers that write back --
/// exercising calendar buckets, overflow, and the pooled packet walk.
RunResult ring_scenario() {
  sim::Simulation simu;
  scramnet::Ring ring(simu, scramnet::RingConfig{.nodes = 4,
                                                 .bank_words = 1u << 12,
                                                 .redundant_ring = true});
  std::vector<u32> block(64);
  for (u32 i = 0; i < 64; ++i) block[i] = 0x1000u + i;
  ring.set_interrupt(2, 0, 256, [&](u32 addr) {
    // Write-back traffic from inside a delivery handler.
    ring.host_write(2, 512 + (addr % 64), addr);
  });
  simu.post(us(3), [&] { ring.fail_link(1); });
  simu.post(us(9), [&] { ring.heal_link(1); });
  for (int round = 0; round < 6; ++round) {
    simu.post(us(2) * round + ns(50), [&, round] {
      ring.host_write_block(static_cast<u32>(round) % 4, 0, block, ns(240));
    });
  }
  simu.run();
  u32 sum = 0;
  for (u32 node = 0; node < 4; ++node)
    for (u32 a = 0; a < 1024; ++a) sum = sum * 31 + ring.host_read(node, a);
  return {simu.events_executed(), simu.now(), ring.packets_sent(),
          ring.words_replicated(), sum};
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalResults) {
  const RunResult a = ring_scenario();
  const RunResult b = ring_scenario();
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.final_now, b.final_now);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_GT(a.events, 0u);
}

TEST(DeterminismTest, PacketWalkPoolIsRecycled) {
  sim::Simulation simu;
  scramnet::Ring ring(simu, scramnet::RingConfig{.nodes = 8, .bank_words = 1u << 10});
  // Bursts spaced so the ring drains in between (16 fixed packets serialize
  // in ~10 us, plus 7 hops of propagation): the pool high-water mark must
  // stay near one burst's in-flight count, far below the total packet count.
  for (int burst = 0; burst < 100; ++burst) {
    simu.post(us(20) * burst, [&, burst] {
      for (u32 w = 0; w < 16; ++w)
        ring.host_write(static_cast<u32>(burst) % 8, w, static_cast<u32>(burst));
    });
  }
  simu.run();
  EXPECT_EQ(ring.packets_sent(), 1600u);
  EXPECT_LE(ring.walk_pool_size(), 32u);
  EXPECT_GT(ring.walk_pool_size(), 0u);
}

}  // namespace
}  // namespace scrnet
