// Property-style parameterized tests for the BillBoard Protocol:
// invariants that must hold across message sizes, slot counts, process
// counts and traffic patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "bbp/endpoint.h"
#include "common/bytes.h"
#include "scramnet/ring.h"
#include "scramnet/sim_port.h"
#include "seeded_timing.h"

namespace scrnet::bbp {
namespace {

using scramnet::Ring;
using scramnet::RingConfig;
using scramnet::SimHostPort;

// ---------------------------------------------------------------------------
// Invariant: payload round-trips bit-exactly for every size and slot count.
// ---------------------------------------------------------------------------

class SizeSlotsTest
    : public ::testing::TestWithParam<std::tuple<u32 /*bytes*/, u32 /*slots*/>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, SizeSlotsTest,
    ::testing::Combine(::testing::Values(0u, 1u, 3u, 4u, 5u, 63u, 64u, 65u,
                                         1000u, 1024u, 4096u),
                       ::testing::Values(1u, 2u, 8u, 32u)),
    [](const auto& ti) {
      std::string name = "b";
      name += std::to_string(std::get<0>(ti.param));
      name += "_s";
      name += std::to_string(std::get<1>(ti.param));
      return name;
    });

TEST_P(SizeSlotsTest, PayloadIntegrityAndReclamation) {
  const auto [bytes, slots] = GetParam();
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 1u << 15});
  Config cfg;
  cfg.slots = slots;
  u64 reclaimed = 0;
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    Endpoint ep(port, 2, 0, cfg);
    std::vector<u8> msg(bytes);
    fill_pattern(msg, bytes + slots);
    // Send enough messages to force slot reuse for every slot count.
    for (u32 i = 0; i < 3 * slots + 2; ++i) ASSERT_TRUE(ep.send(1, msg).ok());
    ep.drain();
    EXPECT_EQ(ep.inflight(), 0u);
    reclaimed = ep.stats().slots_reclaimed;
  });
  sim.spawn("rx", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    Endpoint ep(port, 2, 1, cfg);
    std::vector<u8> buf(std::max<u32>(bytes, 4));
    for (u32 i = 0; i < 3 * slots + 2; ++i) {
      auto r = ep.recv(0, buf);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.value().len, bytes);
      ASSERT_TRUE(check_pattern(std::span<const u8>(buf.data(), bytes),
                                bytes + slots));
    }
  });
  sim.run();
  EXPECT_EQ(reclaimed, 3 * slots + 2);  // every slot use was reclaimed
}

// ---------------------------------------------------------------------------
// Invariant: in-order, exactly-once delivery per sender, under random mixed
// unicast/multicast traffic at every process count and under many-to-one
// and fan-out traffic, each under 256 seeded adversarial timings
// (seeded_timing.h).
// ---------------------------------------------------------------------------

/// The first of 256 seeds on which some receiver misses, repeats or
/// reorders a message: every process sends the messages `plan(s, rng)`
/// gives it, one destination mask each, while receiving.
template <typename Plan>
std::optional<u64> first_failing_traffic_seed(u32 n, Plan plan) {
  Config cfg;
  cfg.slots = 4;  // small: force GC under load
  return seeded::first_failing_seed(256, [&](u64 seed) {
    seeded::Timing t(seed, n, RingConfig{.nodes = n, .bank_words = 4096});
    sim::Simulation sim;
    Ring ring(sim, t.ring);

    // Drawn before the run so both sides agree on them.
    std::vector<std::vector<u32>> masks(n);
    for (u32 s = 0; s < n; ++s) masks[s] = plan(s, t.rng[s]);
    // Index of the first message at or after `m` in s's plan addressed to r.
    auto next_to = [&](u32 s, u32 r, u32 m) {
      while (m < masks[s].size() && !((masks[s][m] >> r) & 1u)) ++m;
      return m;
    };

    for (u32 id = 0; id < n; ++id) {
      sim.spawn("node" + std::to_string(id), [&, id](sim::Process& p) {
        SimHostPort port(ring, id, p);
        Endpoint ep(port, n, id, cfg);
        t.enter(p, id);
        // want[s]: the message I must get next from s; past the end of s's
        // plan once I have had every message s addressed to me, exactly once.
        std::vector<u32> want(n);
        for (u32 s = 0; s < n; ++s) want[s] = next_to(s, id, 0);
        auto owed = [&] {
          for (u32 s = 0; s < n; ++s)
            if (want[s] < masks[s].size()) return true;
          return false;
        };
        u32 sent = 0;
        while (sent < masks[id].size() || owed()) {
          // Interleave sending and receiving to exercise concurrent flows.
          // Sends must not block: with every process stuck in a send that
          // waits for ACKs nobody is receiving to write, no one progresses.
          bool backlogged = sent == masks[id].size();
          if (sent < masks[id].size()) {
            std::vector<u32> dests;
            for (u32 r = 0; r < n; ++r)
              if ((masks[id][sent] >> r) & 1u) dests.push_back(r);
            // Payload encodes (sender, per-message seq) for order checking.
            u32 words[2] = {id, sent};
            const Status st = ep.try_mcast(
                dests, std::span<const u8>(reinterpret_cast<const u8*>(words), 8));
            if (st.ok()) {
              ++sent;
              p.delay(static_cast<SimTime>(t.rng[id].below(us(2))));
            } else {
              ASSERT_EQ(st.code(), StatusCode::kNoSpace);
              backlogged = true;
            }
          }
          while (owed()) {
            auto avail = ep.msg_avail();
            if (!avail) break;
            u32 words[2];
            auto r = ep.recv(*avail, std::span<u8>(reinterpret_cast<u8*>(words), 8));
            ASSERT_TRUE(r.ok());
            const u32 s = words[0];
            ASSERT_EQ(s, r.value().src);
            ASSERT_EQ(words[1], want[s]) << "out-of-order or duplicate from " << s;
            want[s] = next_to(s, id, want[s] + 1);
          }
          if (backlogged) p.delay(us(2));
        }
        ep.drain();
      });
    }
    sim.run();
    return true;
  });
}

class ProcCountTest : public ::testing::TestWithParam<u32> {};

INSTANTIATE_TEST_SUITE_P(Procs, ProcCountTest, ::testing::Values(2u, 3u, 5u, 8u),
                         [](const auto& ti) {
                           return std::string("n").append(std::to_string(ti.param));
                         });

TEST_P(ProcCountTest, RandomTrafficInOrderExactlyOnce) {
  const u32 n = GetParam();
  const auto plan = [n](u32 s, Rng& rng) {
    std::vector<u32> masks(6);  // random non-empty masks, never to self
    for (u32& mask : masks)
      while (mask == 0) mask = static_cast<u32>(rng.below(1u << n)) & ~(1u << s);
    return masks;
  };
  EXPECT_EQ(first_failing_traffic_seed(n, plan), std::nullopt);
}

TEST(BbpProperty, ManyToOneUnderSeededTiming) {
  // Ranks 1-3 each send 20 messages to rank 0, which takes them as they come.
  const auto plan = [](u32 s, Rng&) { return std::vector<u32>(s ? 20 : 0, 0b0001u); };
  EXPECT_EQ(first_failing_traffic_seed(4, plan), std::nullopt);
}

TEST(BbpProperty, McastFanoutUnderSeededTiming) {
  // Rank 0 multicasts 20 messages, each to ranks 1-3.
  const auto plan = [](u32 s, Rng&) { return std::vector<u32>(s ? 0 : 20, 0b1110u); };
  EXPECT_EQ(first_failing_traffic_seed(4, plan), std::nullopt);
}

// ---------------------------------------------------------------------------
// Invariant: latency is monotonically non-decreasing in message size.
// ---------------------------------------------------------------------------

TEST(BbpProperty, LatencyMonotoneInSize) {
  auto oneway = [](u32 bytes) {
    sim::Simulation sim;
    Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 1u << 15});
    SimTime t0 = 0, t1 = 0;
    sim.spawn("tx", [&](sim::Process& p) {
      SimHostPort port(ring, 0, p);
      Endpoint ep(port, 2, 0);
      std::vector<u8> msg(bytes);
      t0 = p.now();
      ASSERT_TRUE(ep.send(1, msg).ok());
    });
    sim.spawn("rx", [&](sim::Process& p) {
      SimHostPort port(ring, 1, p);
      Endpoint ep(port, 2, 1);
      std::vector<u8> buf(std::max<u32>(bytes, 4));
      ASSERT_TRUE(ep.recv(0, buf).ok());
      t1 = p.now();
    });
    sim.run();
    return t1 - t0;
  };
  SimTime prev = -1;
  for (u32 b : {0u, 4u, 16u, 64u, 256u, 1024u, 4096u}) {
    const SimTime t = oneway(b);
    EXPECT_GE(t, prev) << "latency decreased at " << b << " bytes";
    prev = t;
  }
}

// ---------------------------------------------------------------------------
// Invariant: the protocol never writes outside its own region except the
// flag/ack words it owns in other regions.
// ---------------------------------------------------------------------------

TEST(BbpProperty, SingleWriterDiscipline) {
  // Run traffic, then verify every word of every control partition could
  // only have been written by its designated writer, by checking that a
  // third party's regions outside flag words stayed zero.
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 3, .bank_words = 4096});
  Layout layout(4096, 3, 8);
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    Endpoint ep(port, 3, 0, Config{.slots = 8});
    for (int i = 0; i < 5; ++i)
      ASSERT_TRUE(ep.send(1, std::vector<u8>(16, 0xAB)).ok());
    ep.drain();
  });
  sim.spawn("rx", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    Endpoint ep(port, 3, 1, Config{.slots = 8});
    std::vector<u8> buf(16);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(ep.recv(0, buf).ok());
  });
  // Node 2 is idle: nothing in the exchange may touch node 2's region
  // except... nothing. Its whole region must remain zero.
  sim.spawn("idle", [&](sim::Process& p) { p.delay(us(1)); });
  sim.run();
  const u32 base2 = layout.region_base(2);
  for (u32 w = 0; w < layout.region_words; ++w) {
    ASSERT_EQ(ring.host_read(0, base2 + w), 0u)
        << "traffic between 0 and 1 leaked into region 2 at word " << w;
  }
}

}  // namespace
}  // namespace scrnet::bbp
