// Tests for interrupt-driven BBP receive (the paper's Section 7 future
// work, implemented as RecvMode::kInterrupt).
#include <gtest/gtest.h>

#include "bbp/endpoint.h"
#include "common/bytes.h"
#include "scramnet/ring.h"
#include "scramnet/sim_port.h"

namespace scrnet::bbp {
namespace {

using scramnet::Ring;
using scramnet::RingConfig;
using scramnet::SimHostPort;

Config irq_cfg() {
  Config c;
  c.recv_mode = RecvMode::kInterrupt;
  return c;
}

std::vector<u8> make_msg(usize n = 32, u32 seed = 3) {
  std::vector<u8> v(n);
  fill_pattern(v, seed);
  return v;
}

TEST(BbpInterrupt, ModeActiveOnSimPort) {
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 4096});
  sim.spawn("p", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    Endpoint ep(port, 2, 0, irq_cfg());
    EXPECT_EQ(ep.recv_mode(), RecvMode::kInterrupt);
  });
  sim.run();
}

TEST(BbpInterrupt, DeliversAcrossLongIdleGaps) {
  // The receiver sleeps (no polling) for a long virtual time before the
  // message is sent; the interrupt must wake it with no busy loop.
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 4096});
  SimTime got_at = 0;
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    Endpoint ep(port, 2, 0);
    p.delay(ms(10));  // long silence
    ASSERT_TRUE(ep.send(1, make_msg()).ok());
    ep.drain();
  });
  sim.spawn("rx", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    Endpoint ep(port, 2, 1, irq_cfg());
    std::vector<u8> buf(32);
    auto r = ep.recv(0, buf);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(check_pattern(buf, 3));
    got_at = p.now();
  });
  sim.run();
  EXPECT_GE(got_at, ms(10));
  EXPECT_LT(to_us(got_at), 10'030.0);  // woke promptly after the send
}

// Ping-pong across modes: rank 0 polls, rank 1 sleeps on interrupts; both
// directions and the ACK path get exercised every iteration.
TEST(BbpInterrupt, MixedModePingPong) {
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 1u << 14});
  constexpr int kIters = 30;
  sim.spawn("rank0", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    Endpoint ep(port, 2, 0);  // polling side
    std::vector<u8> buf(16);
    for (int i = 0; i < kIters; ++i) {
      ASSERT_TRUE(ep.send(1, make_msg(16, static_cast<u32>(i))).ok());
      ASSERT_TRUE(ep.recv(1, buf).ok());
      ASSERT_TRUE(check_pattern(buf, static_cast<u32>(i) + 100));
    }
    ep.drain();
  });
  sim.spawn("rank1", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    Endpoint ep(port, 2, 1, irq_cfg());  // interrupt side
    std::vector<u8> buf(16);
    for (int i = 0; i < kIters; ++i) {
      ASSERT_TRUE(ep.recv(0, buf).ok());
      ASSERT_TRUE(check_pattern(buf, static_cast<u32>(i)));
      ASSERT_TRUE(ep.send(0, make_msg(16, static_cast<u32>(i) + 100)).ok());
    }
    ep.drain();
  });
  sim.run();
}

TEST(BbpInterrupt, SenderStallWokenByAck) {
  // A blocking send with all slots in flight must be woken by the ACK
  // toggle interrupt (ACK words are inside the watched control partition).
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 1u << 14});
  Config cfg = irq_cfg();
  cfg.slots = 2;
  sim.spawn("rank0", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    Endpoint ep(port, 2, 0, cfg);
    for (int i = 0; i < 6; ++i)
      ASSERT_TRUE(ep.send(1, make_msg(8, static_cast<u32>(i))).ok());
    ep.drain();
    EXPECT_GT(ep.stats().send_stalls, 0u);
  });
  sim.spawn("rank1", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    Endpoint ep(port, 2, 1, cfg);
    std::vector<u8> buf(8);
    for (int i = 0; i < 6; ++i) {
      p.delay(us(40));  // slow consumer
      ASSERT_TRUE(ep.recv(0, buf).ok());
      ASSERT_TRUE(check_pattern(buf, static_cast<u32>(i)));
    }
  });
  sim.run();
}

TEST(BbpInterrupt, DrainSleepsUntilAllAcksArrive) {
  // drain() on an interrupt-mode endpoint must sleep between ACK toggles
  // (not busy-poll) and return only once every outstanding slot is
  // reclaimed, even when the receiver is very slow.
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 1u << 14});
  constexpr int kMsgs = 4;
  SimTime drained_at = 0;
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    Endpoint ep(port, 2, 0, irq_cfg());
    for (int i = 0; i < kMsgs; ++i)
      ASSERT_TRUE(ep.send(1, make_msg(16, static_cast<u32>(i))).ok());
    EXPECT_GT(ep.inflight(), 0u);
    ep.drain();
    EXPECT_EQ(ep.inflight(), 0u);
    drained_at = p.now();
  });
  sim.spawn("rx", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    Endpoint ep(port, 2, 1);
    std::vector<u8> buf(16);
    for (int i = 0; i < kMsgs; ++i) {
      p.delay(us(100));  // slow consumer: last ACK lands after 400us
      ASSERT_TRUE(ep.recv(0, buf).ok());
      ASSERT_TRUE(check_pattern(buf, static_cast<u32>(i)));
    }
  });
  sim.run();
  // The drain must have waited for the slow receiver's final ACK.
  EXPECT_GE(drained_at, us(400));
}

TEST(BbpInterrupt, LatencyCostIsTheDispatch) {
  auto oneway = [](Config cfg) {
    sim::Simulation sim;
    Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 1u << 14});
    SimTime t0 = 0, t1 = 0;
    sim.spawn("tx", [&](sim::Process& p) {
      SimHostPort port(ring, 0, p);
      Endpoint ep(port, 2, 0);
      p.delay(us(50));
      t0 = p.now();
      ASSERT_TRUE(ep.send(1, make_msg(4, 1)).ok());
    });
    sim.spawn("rx", [&](sim::Process& p) {
      SimHostPort port(ring, 1, p);
      Endpoint ep(port, 2, 1, cfg);
      std::vector<u8> buf(4);
      ASSERT_TRUE(ep.recv(0, buf).ok());
      t1 = p.now();
    });
    sim.run();
    return to_us(t1 - t0);
  };
  const double poll_us = oneway(Config{});
  const double irq_us = oneway(irq_cfg());
  // Interrupt receive trades ~irq_dispatch (7us) of latency for zero
  // polling bus traffic.
  EXPECT_GT(irq_us, poll_us);
  EXPECT_LT(irq_us, poll_us + 12.0);
}

}  // namespace
}  // namespace scrnet::bbp
