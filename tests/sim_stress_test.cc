// Stress / fuzz tests for the DES kernel: randomized workloads must be
// exactly reproducible, conservation laws must hold, and the kernel must
// survive deep event cascades and many processes.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "sim/mailbox.h"
#include "sim/simulation.h"

namespace scrnet::sim {
namespace {

/// A randomized token-passing workload: N processes, random delays and
/// random next-hop choices, all derived from one seed. Returns a digest of
/// the execution (who held the token when).
u64 run_fuzz(u64 seed, u32 procs, u32 hops) {
  Simulation sim;
  std::vector<std::unique_ptr<Mailbox<u32>>> boxes;
  for (u32 i = 0; i < procs; ++i) boxes.push_back(std::make_unique<Mailbox<u32>>(sim));
  u64 digest = 14695981039346656037ULL;
  auto mix = [&digest](u64 v) {
    digest = (digest ^ v) * 1099511628211ULL;
  };
  for (u32 i = 0; i < procs; ++i) {
    sim.spawn(std::string("p").append(std::to_string(i)), [&, i](Process& p) {
      Rng rng(seed * 1000 + i);
      for (;;) {
        const u32 token = boxes[i]->pop(p);
        if (token == 0) {
          // Poison: forward once around the ring so everyone terminates.
          boxes[(i + 1) % procs]->push(0);
          return;
        }
        mix(static_cast<u64>(p.now()));
        mix(i);
        p.delay(ns(static_cast<i64>(rng.below(5000)) + 1));
        const u32 next = static_cast<u32>(rng.below(procs));
        boxes[next]->push(token - 1);  // reaches 0 after `hops` moves
      }
    });
  }
  sim.post(0, [&] { boxes[0]->push(hops); });  // kick off the token
  sim.run();
  return digest;
}

TEST(SimFuzz, DeterministicAcrossRepeatedRuns) {
  for (u64 seed : {1ULL, 42ULL, 987654321ULL}) {
    const u64 a = run_fuzz(seed, 6, 200);
    const u64 b = run_fuzz(seed, 6, 200);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST(SimFuzz, DifferentSeedsDiverge) {
  EXPECT_NE(run_fuzz(7, 5, 150), run_fuzz(8, 5, 150));
}

TEST(SimStress, DeepEventCascade) {
  Simulation sim;
  u64 count = 0;
  std::function<void()> chain = [&] {
    if (++count < 200000) sim.post(ns(1), chain);
  };
  sim.post(ns(1), chain);
  sim.run();
  EXPECT_EQ(count, 200000u);
  EXPECT_EQ(sim.now(), ns(200000));
}

TEST(SimStress, ManyProcessesAllFinish) {
  Simulation sim;
  constexpr u32 kProcs = 64;
  u32 done = 0;
  for (u32 i = 0; i < kProcs; ++i) {
    sim.spawn(std::string("p").append(std::to_string(i)), [&, i](Process& p) {
      for (u32 k = 0; k < 20; ++k) p.delay(ns(100 + i));
      ++done;
    });
  }
  sim.run();
  EXPECT_EQ(done, kProcs);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(SimStress, MailboxConservationUnderRandomTraffic) {
  // Tokens are conserved: everything pushed is eventually popped exactly
  // once, across many producers/consumers with random routing.
  Simulation sim;
  constexpr u32 kProcs = 8;
  constexpr u32 kTokensPerProc = 50;
  std::vector<std::unique_ptr<Mailbox<u32>>> boxes;
  for (u32 i = 0; i < kProcs; ++i)
    boxes.push_back(std::make_unique<Mailbox<u32>>(sim));
  u64 pushed = 0, popped = 0;

  for (u32 i = 0; i < kProcs; ++i) {
    sim.spawn(std::string("p").append(std::to_string(i)), [&, i](Process& p) {
      Rng rng(99 + i);
      // Produce.
      for (u32 k = 0; k < kTokensPerProc; ++k) {
        p.delay(ns(static_cast<i64>(rng.below(2000))));
        boxes[rng.below(kProcs)]->push(1);
        ++pushed;
      }
      // Consume whatever lands here, with a deadline.
      const SimTime deadline = p.now() + ms(5);
      while (p.now() < deadline) {
        auto v = boxes[i]->pop_for(p, us(200));
        if (v) ++popped;
      }
      // Drain leftovers non-blockingly.
      while (boxes[i]->try_pop()) ++popped;
    });
  }
  sim.run();
  EXPECT_EQ(pushed, kProcs * kTokensPerProc);
  EXPECT_EQ(popped, pushed);
}

}  // namespace
}  // namespace scrnet::sim
