// Tests for the two-level ring hierarchy (Section 2: scaling past one
// ring) and the protocol stack running across it.
#include <gtest/gtest.h>

#include "bbp/endpoint.h"
#include "common/bytes.h"
#include "scramnet/hierarchy.h"
#include "scramnet/sim_port.h"
#include "scrshm/barrier.h"
#include "scrshm/mutex.h"
#include "seeded_timing.h"

namespace scrnet::scramnet {
namespace {

std::vector<u8> make_span_msg() {
  std::vector<u8> v(24);
  fill_pattern(v, 7);
  return v;
}

HierarchyConfig small_h() {
  HierarchyConfig cfg;
  cfg.leaf_rings = 3;
  cfg.leaf.nodes = 4;
  cfg.leaf.bank_words = 1u << 14;
  return cfg;
}

TEST(Hierarchy, TopologyMath) {
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  EXPECT_EQ(h.nodes(), 12u);
  EXPECT_EQ(h.ring_of(0), 0u);
  EXPECT_EQ(h.ring_of(5), 1u);
  EXPECT_EQ(h.local_of(5), 1u);
  EXPECT_TRUE(h.is_bridge(4));
  EXPECT_FALSE(h.is_bridge(5));
}

TEST(Hierarchy, WriteReflectsToAllTwelveNodes) {
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  h.host_write(5, 100, 0xABCD);
  sim.run();
  for (u32 n = 0; n < 12; ++n)
    EXPECT_EQ(h.host_read(n, 100), 0xABCDu) << "node " << n;
}

TEST(Hierarchy, LocalRingFasterThanCrossRing) {
  // Write from node 1 (ring 0): node 2 (same ring) must see it well before
  // node 6 (ring 1, through two bridges).
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  h.host_write(1, 7, 42);
  SimTime local_at = 0, remote_at = 0;
  sim.spawn("probe", [&](sim::Process& p) {
    while (h.host_read(2, 7) != 42) p.delay(ns(100));
    local_at = p.now();
    while (h.host_read(6, 7) != 42) p.delay(ns(100));
    remote_at = p.now();
  });
  sim.run();
  EXPECT_LT(to_us(local_at), 2.0);
  EXPECT_GT(remote_at, local_at + us(2));  // at least one bridge latency more
  EXPECT_LE(remote_at, h.full_propagation_bound() + us(1));
}

TEST(Hierarchy, PerSenderOrderHoldsAcrossBridges) {
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  h.host_write(1, 10, 111);  // data
  h.host_write(1, 11, 222);  // flag
  bool checked = false;
  sim.spawn("probe", [&](sim::Process& p) {
    for (int i = 0; i < 1000; ++i) {
      p.delay(ns(200));
      if (h.host_read(9, 11) == 222) {  // ring 2
        EXPECT_EQ(h.host_read(9, 10), 111u) << "flag passed data across bridges";
        checked = true;
        return;
      }
    }
  });
  sim.run();
  EXPECT_TRUE(checked);
}

TEST(Hierarchy, BackbonePacketAccounting) {
  // Each write is one packet on its source leaf, one on the backbone and
  // one down each other leaf; every ring counts its own.
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  h.host_write(0, 1, 5);
  h.host_write(7, 2, 6);
  sim.run();
  EXPECT_EQ(h.backbone().packets_sent(), 2u);
  u64 leaf_packets = 0;
  for (u32 r = 0; r < 3; ++r) leaf_packets += h.leaf(r).packets_sent();
  EXPECT_EQ(leaf_packets, 6u);
}

TEST(Hierarchy, BridgeOwnWriteReachesEveryRing) {
  // A bridge host's own write is forwarded when its leaf injects it.
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  h.host_write(4, 30, 0x5151);
  sim.run();
  for (u32 n = 0; n < 12; ++n)
    EXPECT_EQ(h.host_read(n, 30), 0x5151u) << "node " << n;
}

TEST(Hierarchy, LeafWriteNotHeldByCrossRingPacket) {
  // A packet from another ring takes a leaf's medium only once it reaches
  // that leaf's bridge: a 1 KiB packet from ring 0 gets there at ~127 us,
  // so a one-word write on ring 1 at 10 us goes out at once.
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  const std::vector<u32> block(256, 7);
  h.leaf(0).host_write_block(1, 1000, block, ns(240));
  SimTime seen_at = 0;
  sim.spawn("writer", [&](sim::Process& p) {
    p.delay(us(10));
    h.host_write(5, 10, 99);
  });
  sim.spawn("probe", [&](sim::Process& p) {
    while (h.host_read(6, 10) != 99) p.delay(ns(10));
    seen_at = p.now();
  });
  sim.run();
  EXPECT_LT(seen_at, us(12)) << "seen at " << to_us(seen_at) << " us";
}

TEST(Hierarchy, InterruptReceiveAtBridgeNode) {
  // A packet forwarded down into a leaf lands at the bridge as a network
  // delivery, so it raises the bridge host's receive interrupt.
  sim::Simulation sim;
  HierarchyConfig cfg = small_h();
  cfg.leaf_rings = 2;
  cfg.leaf.nodes = 3;
  RingHierarchy h(sim, cfg);
  bbp::Config c;
  c.recv_mode = bbp::RecvMode::kInterrupt;
  bool sent = false, received = false;
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(h, 4, p);
    bbp::Endpoint ep(port, h.nodes(), 4, c);
    std::vector<u8> msg(16);
    fill_pattern(msg, 3);
    ASSERT_TRUE(ep.send(0, msg).ok());
    ASSERT_TRUE(ep.drain().ok());
    sent = true;
  });
  sim.spawn("rx", [&](sim::Process& p) {
    SimHostPort port(h, 0, p);
    bbp::Endpoint ep(port, h.nodes(), 0, c);
    std::vector<u8> buf(16);
    ASSERT_TRUE(ep.recv(4, buf).ok());
    EXPECT_TRUE(check_pattern(buf, 3));
    received = true;
  });
  sim.run();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(received);
}

TEST(Hierarchy, BbpRunsAcrossRings) {
  // The BillBoard Protocol on a 12-node hierarchy: cross-ring p2p and a
  // system-wide multicast, no protocol changes.
  sim::Simulation sim;
  RingHierarchy h(sim, small_h());
  u32 got_mcast = 0;
  sim.spawn("sender", [&](sim::Process& p) {
    SimHostPort port(h, 1, p);
    bbp::Endpoint ep(port, 12, 1);
    ASSERT_TRUE(ep.send(6, make_span_msg()).ok());
    std::vector<u32> dests;
    for (u32 r = 0; r < 12; ++r)
      if (r != 1) dests.push_back(r);
    ASSERT_TRUE(ep.mcast(dests, make_span_msg()).ok());
    ep.drain();
  });
  for (u32 r = 0; r < 12; ++r) {
    if (r == 1) continue;
    sim.spawn("rx" + std::to_string(r), [&, r](sim::Process& p) {
      SimHostPort port(h, r, p);
      bbp::Endpoint ep(port, 12, r);
      std::vector<u8> buf(24);
      if (r == 6) {  // gets the p2p message first (in-order from sender 1)
        auto res = ep.recv(1, buf);
        ASSERT_TRUE(res.ok());
        EXPECT_TRUE(check_pattern(buf, 7));
      }
      auto res = ep.recv(1, buf);
      ASSERT_TRUE(res.ok());
      EXPECT_TRUE(check_pattern(buf, 7));
      ++got_mcast;
    });
  }
  sim.run();
  EXPECT_EQ(got_mcast, 11u);
}

TEST(Hierarchy, ShmBarrierAcrossRings) {
  sim::Simulation sim;
  HierarchyConfig cfg = small_h();
  cfg.leaf_rings = 2;
  cfg.leaf.nodes = 3;
  RingHierarchy h(sim, cfg);
  constexpr u32 kN = 6, kPhases = 5;
  std::vector<u32> arrived(kPhases, 0);
  bool ok = true;
  for (u32 id = 0; id < kN; ++id) {
    sim.spawn(std::string("p").append(std::to_string(id)), [&, id](sim::Process& p) {
      SimHostPort port(h, id, p);
      scrshm::Arena arena(0, 1024);
      scrshm::DisseminationBarrier bar(port, arena, kN, id);
      for (u32 phase = 0; phase < kPhases; ++phase) {
        p.delay(us(1) * ((id * 11 + phase) % 7));
        ++arrived[phase];
        bar.wait();
        if (arrived[phase] != kN) ok = false;
      }
    });
  }
  sim.run();
  EXPECT_TRUE(ok);
}

TEST(Hierarchy, FenceWaitsForEveryRing) {
  // A fence returns only once the write is in every bank of the system,
  // from every kind of node: a bridge, and a leaf node whose packets reach
  // their bridge on the last hop or on the first.
  for (u32 writer : {0u, 1u, 2u, 4u}) {
    sim::Simulation sim;
    HierarchyConfig cfg = small_h();
    cfg.leaf_rings = 2;
    cfg.leaf.nodes = 3;
    RingHierarchy h(sim, cfg);
    u32 missing = 0;
    sim.spawn("writer", [&](sim::Process& p) {
      SimHostPort port(h, writer, p);
      port.write_u32(200, 7);
      port.fence();
      p.yield();  // past deliveries landing at the fence's own instant
      for (u32 n = 0; n < h.nodes(); ++n) missing += h.host_read(n, 200) != 7u;
    });
    sim.run();
    EXPECT_EQ(missing, 0u) << "writer " << writer;
  }
}

TEST(Hierarchy, BakeryExcludesAcrossRings) {
  // The bakery lock fences its doorway; across bridges that fence must
  // wait for the other rings too, or two processes enter together. Slow
  // bridges stretch cross-ring propagation the way the seeded hop band
  // stretches a ring's, so a fence covering only the leaf ring fails on
  // many more seeds than with the nominal 2 us bridges.
  constexpr u32 kN = 6;
  constexpr int kRounds = 6;
  const auto run = [](u64 seed) {
    seeded::Timing t(seed, kN, RingConfig{.nodes = 3, .bank_words = 4096});
    sim::Simulation sim;
    HierarchyConfig cfg;
    cfg.leaf_rings = 2;
    cfg.leaf = t.ring;
    cfg.bridge_latency = us(20);
    RingHierarchy h(sim, cfg);
    int in_cs = 0, max_in_cs = 0;
    for (u32 id = 0; id < kN; ++id) {
      sim.spawn(std::string("p") + std::to_string(id), [&, id](sim::Process& p) {
        SimHostPort port(h, id, p);
        scrshm::Arena arena(0, 256);
        scrshm::BakeryMutex mu(port, arena, kN, id);
        t.enter(p, id);
        for (int i = 0; i < kRounds; ++i) {
          mu.lock();
          max_in_cs = std::max(max_in_cs, ++in_cs);
          p.delay(ns(500) + static_cast<SimTime>(t.rng[id].below(us(5))));
          --in_cs;
          mu.unlock();
          p.delay(static_cast<SimTime>(t.rng[id].below(us(5))));
        }
      });
    }
    sim.run();
    return max_in_cs == 1;
  };
  EXPECT_EQ(seeded::first_failing_seed(256, run), std::nullopt);
}

}  // namespace
}  // namespace scrnet::scramnet
