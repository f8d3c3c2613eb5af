// Tests for the SCRAMNet ring device model.
#include <gtest/gtest.h>

#include <vector>

#include "scramnet/ring.h"
#include "scramnet/sim_port.h"

namespace scrnet::scramnet {
namespace {

RingConfig small_ring(u32 nodes = 4) {
  RingConfig cfg;
  cfg.nodes = nodes;
  cfg.bank_words = 4096;
  return cfg;
}

TEST(Ring, LocalWriteVisibleImmediately) {
  sim::Simulation sim;
  Ring ring(sim, small_ring());
  ring.host_write(0, 100, 0xDEADBEEF);
  EXPECT_EQ(ring.host_read(0, 100), 0xDEADBEEFu);
  // Remote copy not yet updated.
  EXPECT_EQ(ring.host_read(1, 100), 0u);
}

TEST(Ring, WriteReflectsToAllNodesAfterPropagation) {
  sim::Simulation sim;
  Ring ring(sim, small_ring());
  ring.host_write(0, 7, 42);
  sim.run();
  for (u32 n = 0; n < 4; ++n) EXPECT_EQ(ring.host_read(n, 7), 42u) << "node " << n;
}

TEST(Ring, PropagationTimingMatchesHopLatency) {
  sim::Simulation sim;
  RingConfig cfg = small_ring();
  cfg.hop_latency = ns(400);
  Ring ring(sim, cfg);
  ring.host_write(0, 7, 42);
  const SimTime occ = cfg.packet_occupancy(4);
  // Neighbor (1 hop): not yet visible just before occ + hop, visible after.
  sim.run_until(occ + ns(399));
  EXPECT_EQ(ring.host_read(1, 7), 0u);
  sim.run_until(occ + ns(400));
  EXPECT_EQ(ring.host_read(1, 7), 42u);
  // Farthest node (3 hops).
  EXPECT_EQ(ring.host_read(3, 7), 0u);
  sim.run_until(occ + ns(1200));
  EXPECT_EQ(ring.host_read(3, 7), 42u);
}

TEST(Ring, SameInstantWritesArbitrateInNodeOrder) {
  // Two nodes request the shared medium at the same picosecond. The medium
  // goes to the lower node index, not to whichever write was issued first:
  // node 3 writes first, but node 1 serializes first, so node 2 (one hop
  // past node 1, three past node 3) sees node 1's word one occupancy
  // before node 3's.
  sim::Simulation sim;
  const RingConfig cfg = small_ring();
  Ring ring(sim, cfg);
  ring.host_write(3, 20, 33);
  ring.host_write(1, 10, 11);
  sim.run_until(cfg.packet_occupancy(4) + cfg.hop_latency);
  EXPECT_EQ(ring.host_read(2, 10), 11u);
  EXPECT_EQ(ring.host_read(2, 20), 0u);
}

TEST(Ring, PerSenderFifoOrderPreserved) {
  sim::Simulation sim;
  Ring ring(sim, small_ring());
  // Writes to two addresses in order: data then flag. At any point where a
  // remote node sees the flag, it must also see the data.
  ring.host_write(0, 10, 111);
  ring.host_write(0, 11, 222);
  bool checked = false;
  // Sample remote node 2 at every event boundary via a polling process.
  sim.spawn("checker", [&](sim::Process& p) {
    for (int i = 0; i < 100; ++i) {
      p.delay(ns(50));
      if (ring.host_read(2, 11) == 222u) {
        EXPECT_EQ(ring.host_read(2, 10), 111u) << "flag visible before data";
        checked = true;
        return;
      }
    }
  });
  sim.run();
  EXPECT_TRUE(checked);
}

TEST(Ring, FixedModeOccupancyMatchesDataSheet) {
  RingConfig cfg = small_ring();
  cfg.mode = PacketMode::kFixed4;
  // 4 bytes at 6.5 MB/s = 615.38 ns.
  const SimTime occ = cfg.packet_occupancy(4);
  EXPECT_NEAR(to_ns(occ), 615.4, 0.1);
}

TEST(Ring, VariableModeOccupancyMatchesDataSheet) {
  RingConfig cfg = small_ring();
  cfg.mode = PacketMode::kVariable;
  // 1024 bytes at 16.7 MB/s = 61.3 us plus per-packet overhead.
  const SimTime occ = cfg.packet_occupancy(1024);
  EXPECT_NEAR(to_us(occ), 1024.0 / 16.7 + to_us(cfg.per_packet_overhead), 0.05);
}

TEST(Ring, FixedModeSplitsBlocksIntoWordPackets) {
  sim::Simulation sim;
  RingConfig cfg = small_ring();
  cfg.mode = PacketMode::kFixed4;
  Ring ring(sim, cfg);
  const std::vector<u32> data{1, 2, 3, 4, 5};
  ring.host_write_block(0, 20, data, ns(240));
  sim.run();
  EXPECT_EQ(ring.packets_sent(), 5u);
  for (u32 i = 0; i < 5; ++i) EXPECT_EQ(ring.host_read(3, 20 + i), data[i]);
}

TEST(Ring, VariableModeCoalescesBlocks) {
  sim::Simulation sim;
  RingConfig cfg = small_ring();
  cfg.mode = PacketMode::kVariable;
  cfg.max_var_packet_bytes = 64;  // 16 words per packet
  Ring ring(sim, cfg);
  std::vector<u32> data(40);
  for (u32 i = 0; i < 40; ++i) data[i] = i * 3 + 1;
  ring.host_write_block(0, 100, data, ns(240));
  sim.run();
  EXPECT_EQ(ring.packets_sent(), 3u);  // 16 + 16 + 8 words
  for (u32 i = 0; i < 40; ++i) EXPECT_EQ(ring.host_read(2, 100 + i), data[i]);
}

TEST(Ring, SingleSenderThroughputBoundedByMode) {
  sim::Simulation sim;
  RingConfig cfg = small_ring();
  cfg.mode = PacketMode::kVariable;
  cfg.bank_words = 1u << 15;
  Ring ring(sim, cfg);
  // Stream 64 KB as fast as the host can push (word_period 0 = instant).
  std::vector<u32> data(16384, 0xAB);
  ring.host_write_block(0, 0, data, 0);
  sim.run();
  const double secs = static_cast<double>(sim.now()) / 1e12;
  const double mbps = 65536.0 / 1e6 / secs;
  // Should be close to but not exceed 16.7 MB/s.
  EXPECT_LE(mbps, 16.8);
  EXPECT_GE(mbps, 15.0);
}

TEST(Ring, SharedMediumArbitratesBetweenSenders) {
  sim::Simulation sim;
  RingConfig cfg = small_ring();
  cfg.mode = PacketMode::kVariable;
  cfg.bank_words = 1u << 15;
  Ring ring(sim, cfg);
  std::vector<u32> data(8192, 1);  // 32 KB each
  ring.host_write_block(0, 0, data, 0);
  ring.host_write_block(1, 2000, data, 0);
  sim.run();
  const double secs = static_cast<double>(sim.now()) / 1e12;
  const double aggregate_mbps = 2 * 32768.0 / 1e6 / secs;
  EXPECT_LE(aggregate_mbps, 16.8);  // both share the ring
}

TEST(Ring, InterruptFiresOnNetworkDeliveryInRange) {
  sim::Simulation sim;
  Ring ring(sim, small_ring());
  std::vector<u32> fired;
  ring.set_interrupt(2, 50, 60, [&](u32 addr) { fired.push_back(addr); });
  ring.host_write(0, 55, 1);   // in range
  ring.host_write(0, 61, 2);   // out of range
  ring.host_write(2, 55, 3);   // local write at node 2: no interrupt there
  sim.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 55u);
  EXPECT_EQ(ring.interrupts_fired(), 1u);
}

TEST(Ring, NonCoherenceDifferentNodesMayDisagreeTransiently) {
  sim::Simulation sim;
  Ring ring(sim, small_ring());
  // Nodes 0 and 2 write the same word "concurrently". With ring delivery,
  // intermediate nodes see them in different orders; final state is
  // whichever packet arrives last at each bank -- banks may end up
  // different, which is exactly the non-coherence the paper warns about.
  ring.host_write(0, 99, 0xAAAA);
  ring.host_write(2, 99, 0xBBBB);
  sim.run();
  const u32 v1 = ring.host_read(1, 99);
  const u32 v3 = ring.host_read(3, 99);
  EXPECT_TRUE(v1 == 0xAAAA || v1 == 0xBBBB);
  EXPECT_TRUE(v3 == 0xAAAA || v3 == 0xBBBB);
}

TEST(SimHostPort, TimedWriteAndRead) {
  sim::Simulation sim;
  Ring ring(sim, small_ring());
  sim.spawn("host0", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    const SimTime t0 = p.now();
    port.write_u32(5, 77);
    EXPECT_EQ(p.now() - t0, HostTimings::pio_write);
    const SimTime t1 = p.now();
    const u32 v = port.read_u32(5);
    EXPECT_EQ(v, 77u);
    EXPECT_EQ(p.now() - t1, HostTimings::pio_read);
  });
  sim.run();
}

TEST(SimHostPort, BurstTimingsScaleWithLength) {
  sim::Simulation sim;
  Ring ring(sim, small_ring());
  sim.spawn("host0", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    std::vector<u32> data(10, 3);
    const SimTime t0 = p.now();
    port.write_block(200, data);
    EXPECT_EQ(p.now() - t0, HostTimings::pio_write + 9 * HostTimings::burst_write_word);
    const SimTime t1 = p.now();
    std::vector<u32> out(10);
    port.read_block(200, out);
    EXPECT_EQ(p.now() - t1, HostTimings::pio_read + 9 * HostTimings::burst_read_word);
    EXPECT_EQ(out, data);
  });
  sim.run();
}

TEST(SimHostPort, CrossNodeMessage) {
  sim::Simulation sim;
  Ring ring(sim, small_ring());
  bool got = false;
  sim.spawn("writer", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    port.write_u32(300, 123);
    port.write_u32(301, 1);  // flag
  });
  sim.spawn("poller", [&](sim::Process& p) {
    SimHostPort port(ring, 3, p);
    while (port.read_u32(301) == 0) port.poll_pause();
    EXPECT_EQ(port.read_u32(300), 123u);
    got = true;
  });
  sim.run();
  EXPECT_TRUE(got);
}

}  // namespace
}  // namespace scrnet::scramnet
