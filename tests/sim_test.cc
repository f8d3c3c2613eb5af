// Tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/mailbox.h"
#include "sim/simulation.h"

namespace scrnet::sim {
namespace {

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.post(us(30), [&] { order.push_back(3); });
  sim.post(us(10), [&] { order.push_back(1); });
  sim.post(us(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), us(30));
}

TEST(Simulation, TiesBreakByPostOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) sim.post(us(5), [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, NestedPostsExecute) {
  Simulation sim;
  int hits = 0;
  sim.post(us(1), [&] {
    ++hits;
    sim.post(us(1), [&] {
      ++hits;
      sim.post(us(1), [&] { ++hits; });
    });
  });
  sim.run();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(sim.now(), us(3));
}

TEST(Simulation, ProcessDelayAdvancesClock) {
  Simulation sim;
  SimTime end = -1;
  sim.spawn("p", [&](Process& p) {
    p.delay(us(7));
    p.delay(ns(500));
    end = p.now();
  });
  sim.run();
  EXPECT_EQ(end, us(7) + ns(500));
}

TEST(Simulation, TwoProcessesInterleaveDeterministically) {
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn("a", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      p.delay(us(10));
      log.push_back(std::string("a").append(std::to_string(i)));
    }
  });
  sim.spawn("b", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      p.delay(us(15));
      log.push_back(std::string("b").append(std::to_string(i)));
    }
  });
  sim.run();
  // At t=30 both a2 and b1 fire; b1's resume was posted earlier (t=15 vs
  // t=20), so the FIFO tie-break runs it first.
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation sim;
    std::vector<SimTime> stamps;
    Signal sig(sim);
    sim.spawn("producer", [&](Process& p) {
      for (int i = 0; i < 50; ++i) {
        p.delay(ns(137));
        sig.notify_one();
      }
    });
    sim.spawn("consumer", [&](Process& p) {
      for (int i = 0; i < 50; ++i) {
        sig.wait(p);
        stamps.push_back(p.now());
      }
    });
    sim.run();
    return stamps;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulation, SignalWakesParkedProcess) {
  Simulation sim;
  Signal sig(sim);
  SimTime woke = -1;
  sim.spawn("waiter", [&](Process& p) {
    sig.wait(p);
    woke = p.now();
  });
  sim.spawn("waker", [&](Process& p) {
    p.delay(us(42));
    sig.notify_all();
  });
  sim.run();
  EXPECT_EQ(woke, us(42));
}

TEST(Simulation, SignalNotifyOneWakesExactlyOne) {
  Simulation sim;
  Signal sig(sim);
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn(std::string("w").append(std::to_string(i)), [&](Process& p) {
      sig.wait(p);
      ++woke;
    });
  }
  sim.spawn("waker", [&](Process& p) {
    p.delay(us(1));
    sig.notify_one();
    p.delay(us(1));
    // Wake the rest so the sim terminates cleanly.
    EXPECT_EQ(woke, 1);
    sig.notify_all();
  });
  sim.run();
  EXPECT_EQ(woke, 3);
}

TEST(Simulation, WaitForTimesOut) {
  Simulation sim;
  Signal sig(sim);
  bool notified = true;
  sim.spawn("p", [&](Process& p) {
    notified = sig.wait_for(p, us(5));
    EXPECT_EQ(p.now(), us(5));
  });
  sim.run();
  EXPECT_FALSE(notified);
}

TEST(Simulation, WaitForNotifiedBeforeTimeout) {
  Simulation sim;
  Signal sig(sim);
  bool notified = false;
  sim.spawn("p", [&](Process& p) { notified = sig.wait_for(p, us(100)); });
  sim.spawn("q", [&](Process& p) {
    p.delay(us(3));
    sig.notify_all();
  });
  sim.run();
  EXPECT_TRUE(notified);
}

TEST(Simulation, DeadlockIsDetectedAndNamed) {
  Simulation sim;
  Signal sig(sim);
  sim.spawn("stuck-proc", [&](Process& p) { sig.wait(p); });
  try {
    sim.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("stuck-proc"), std::string::npos);
  }
}

TEST(Simulation, ProcessExceptionPropagates) {
  Simulation sim;
  sim.spawn("boom", [&](Process&) { throw std::runtime_error("bad thing"); });
  try {
    sim.run();
    FAIL() << "expected ProcessError";
  } catch (const ProcessError& e) {
    EXPECT_NE(std::string(e.what()).find("bad thing"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int hits = 0;
  sim.post(us(10), [&] { ++hits; });
  sim.post(us(20), [&] { ++hits; });
  EXPECT_TRUE(sim.run_until(us(15)));
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(sim.now(), us(15));
}

TEST(Simulation, SpawnDuringRun) {
  Simulation sim;
  SimTime child_end = -1;
  sim.spawn("parent", [&](Process& p) {
    p.delay(us(5));
    p.simulation().spawn("child", [&](Process& c) {
      c.delay(us(5));
      child_end = c.now();
    });
    p.delay(us(1));
  });
  sim.run();
  EXPECT_EQ(child_end, us(10));
}

TEST(Simulation, YieldLetsQueuedEventsRun) {
  Simulation sim;
  std::vector<int> order;
  sim.spawn("p", [&](Process& p) {
    p.delay(us(1));
    sim.post(0, [&] { order.push_back(1); });
    p.yield();
    order.push_back(2);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Mailbox, PushPopAcrossProcesses) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<int> got;
  sim.spawn("producer", [&](Process& p) {
    for (int i = 0; i < 5; ++i) {
      p.delay(us(2));
      box.push(i);
    }
  });
  sim.spawn("consumer", [&](Process& p) {
    for (int i = 0; i < 5; ++i) got.push_back(box.pop(p));
  });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Mailbox, PopForTimesOutThenSucceeds) {
  Simulation sim;
  Mailbox<int> box(sim);
  sim.spawn("consumer", [&](Process& p) {
    auto miss = box.pop_for(p, us(3));
    EXPECT_FALSE(miss.has_value());
    auto hit = box.pop_for(p, us(100));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 7);
  });
  sim.spawn("producer", [&](Process& p) {
    p.delay(us(10));
    box.push(7);
  });
  sim.run();
}

TEST(Mailbox, PopForZeroTimeoutPollsWithoutBlocking) {
  Simulation sim;
  Mailbox<int> box(sim);
  sim.spawn("consumer", [&](Process& p) {
    const SimTime t0 = p.now();
    EXPECT_FALSE(box.pop_for(p, 0).has_value());  // empty: immediate miss
    EXPECT_EQ(p.now(), t0);                       // ...without advancing time
    box.push(3);
    auto hit = box.pop_for(p, 0);  // non-empty: immediate hit
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 3);
    EXPECT_EQ(p.now(), t0);
  });
  sim.run();
}

// A push landing exactly at the pop_for deadline resolves deterministically
// by event order: whichever side queued its time-T event first wins.
TEST(Mailbox, PopForExpiryExactlyAtPushConsumerFirst) {
  Simulation sim;
  Mailbox<int> box(sim);
  sim.spawn("consumer", [&](Process& p) {
    // Timeout event enqueued before the producer's resume: the wait is
    // cancelled before the push runs, so this attempt misses...
    EXPECT_FALSE(box.pop_for(p, us(5)).has_value());
    EXPECT_EQ(p.now(), us(5));
    // ...and once the producer's same-time event runs, the item is there.
    p.yield();
    auto hit = box.pop_for(p, 0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 9);
  });
  sim.spawn("producer", [&](Process& p) {
    p.delay(us(5));
    box.push(9);
  });
  sim.run();
}

TEST(Mailbox, PopForExpiryExactlyAtPushProducerFirst) {
  Simulation sim;
  Mailbox<int> box(sim);
  sim.spawn("producer", [&](Process& p) {
    p.delay(us(5));
    box.push(11);
  });
  sim.spawn("consumer", [&](Process& p) {
    // The producer's resume event at t=5us precedes the timeout event, so
    // the notify wins the tie and the pop succeeds at the deadline.
    auto hit = box.pop_for(p, us(5));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 11);
    EXPECT_EQ(p.now(), us(5));
  });
  sim.run();
}

TEST(Mailbox, PopForRearmsAfterItemStolenMidWait) {
  // The notify arrives but the item is consumed (try_pop) before the waiter
  // resumes: pop_for must re-arm for the remaining time, then miss at the
  // original deadline -- not return an empty optional early or hang.
  Simulation sim;
  Mailbox<int> box(sim);
  sim.spawn("consumer", [&](Process& p) {
    EXPECT_FALSE(box.pop_for(p, us(10)).has_value());
    EXPECT_EQ(p.now(), us(10));  // full timeout despite the us(5) wakeup
  });
  sim.spawn("thief", [&](Process& p) {
    p.delay(us(5));
    box.push(1);                             // wakes the consumer...
    EXPECT_EQ(box.try_pop().value_or(0), 1); // ...but steals the item first
  });
  sim.run();
}

TEST(Simulation, TimeLimitAborts) {
  // The resume at 60 us is the first event past the limit: it runs, and
  // the run throws right after it, with the clock at its time.
  Simulation sim;
  sim.set_time_limit(us(50));
  sim.spawn("spinner", [&](Process& p) {
    for (;;) p.delay(us(10));
  });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(sim.now(), us(60));
}

TEST(Simulation, DelayResumesAfterATieAndBeforeALaterEvent) {
  // An event already queued for the resume's own time runs first (ties
  // break by post order); one a picosecond later runs after the resume.
  Simulation sim;
  std::vector<std::string> log;
  auto stamp = [&](const char* what) {
    log.push_back(std::string(what) + "@" + std::to_string(sim.now()));
  };
  sim.spawn("p", [&](Process& p) {
    sim.post(us(1), [&] { stamp("tie"); });
    p.delay(us(1));
    stamp("resume");
    sim.post(us(1) + ps(1), [&] { stamp("later"); });
    p.delay(us(1));
    stamp("resume");
  });
  sim.run();
  const std::vector<std::string> want = {
      "tie@" + std::to_string(us(1)),
      "resume@" + std::to_string(us(1)),
      "resume@" + std::to_string(us(2)),
      "later@" + std::to_string(us(2) + ps(1)),
  };
  EXPECT_EQ(log, want);
  EXPECT_EQ(sim.resumes_in_place(), 1u);  // the second delay only
  EXPECT_EQ(sim.events_executed(), 5u);   // spawn, tie, 2 resumes, later
}

}  // namespace
}  // namespace scrnet::sim
