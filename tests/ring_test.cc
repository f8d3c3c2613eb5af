// Tests for the SCRAMNet ring device model.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "scramnet/ring.h"
#include "scramnet/sim_port.h"
#include "sim/mapping.h"

// ASan and TSan reserve terabytes of shadow address space at start-up, so a
// process running under them cannot lower RLIMIT_AS to a few hundred MiB;
// the mapping-failure test is compiled out there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCRNET_TEST_SHADOW_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SCRNET_TEST_SHADOW_SANITIZER 1
#endif
#endif

namespace scrnet::scramnet {
namespace {

RingConfig small_ring(u32 nodes = 4) {
  RingConfig cfg;
  cfg.nodes = nodes;
  cfg.bank_words = 4096;
  return cfg;
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
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

TEST(Ring, FreshBanksReadZeroAtBothEnds) {
  // The banks are one lazily zeroed mapping: the first and last word of
  // every node's bank read 0, and a write to the very last word of the
  // mapping still replicates to every node.
  for (const u32 nodes : {4u, 256u}) {
    sim::Simulation sim;
    Ring ring(sim, RingConfig{.nodes = nodes});
    const u32 last = ring.bank_words() - 1;
    for (u32 n = 0; n < nodes; ++n) {
      EXPECT_EQ(ring.host_read(n, 0), 0u) << "N=" << nodes << " node " << n;
      EXPECT_EQ(ring.host_read(n, last), 0u) << "N=" << nodes << " node " << n;
    }
    ring.host_write(nodes - 1, last, 0xFEEDu);
    sim.run();
    for (u32 n = 0; n < nodes; ++n)
      EXPECT_EQ(ring.host_read(n, last), 0xFEEDu) << "N=" << nodes << " node " << n;
  }
}

TEST(Ring, UntouchedBanksCostNoPages) {
  // An N=256 ring with default 4 MiB banks maps 1 GiB. Zero-filling it
  // would fault in 262,144 pages; reading both ends of every bank maps the
  // kernel's zero page and costs a few hundred faults.
  const long before = minor_faults();
  {
    sim::Simulation sim;
    Ring ring(sim, RingConfig{.nodes = 256});
    const u32 last = ring.bank_words() - 1;
    u32 sum = 0;
    for (u32 n = 0; n < ring.nodes(); ++n)
      sum += ring.host_read(n, 0) + ring.host_read(n, last);
    EXPECT_EQ(sum, 0u);
  }
  EXPECT_LT(minor_faults() - before, 4096);
}

TEST(Ring, NextRingOfTheSameSizeFindsZeroedBanks) {
  // A finished ring zeroes the granules it wrote and leaves its mapping to
  // the next ring of the same size. Round 0 writes word 0, a block that
  // straddles a 4 KiB granule at node 1, and the very last word of the
  // mapping (a granule cut short); round 1 must find every bank all zero.
  RingConfig cfg = small_ring(3);
  cfg.bank_words = 3000;  // banks and the mapping end inside a granule
  const std::vector<u32> block(40, 0xB10Cu);
  for (int round = 0; round < 2; ++round) {
    sim::Simulation sim;
    Ring ring(sim, cfg);
    std::vector<u32> bank(cfg.bank_words);
    for (u32 n = 0; n < cfg.nodes; ++n) {
      ring.host_read_block(n, 0, bank);
      for (u32 w = 0; w < cfg.bank_words; ++w)
        ASSERT_EQ(bank[w], 0u) << "round " << round << " node " << n << " word " << w;
    }
    ring.host_write(0, 0, 1);
    ring.host_write_block(1, 1070, block, HostTimings::burst_write_word);
    ring.host_write(2, cfg.bank_words - 1, 2);
    sim.run();
    for (u32 n = 0; n < cfg.nodes; ++n) {
      ASSERT_EQ(ring.host_read(n, 0), 1u);
      ASSERT_EQ(ring.host_read(n, 1109), 0xB10Cu);
      ASSERT_EQ(ring.host_read(n, cfg.bank_words - 1), 2u);
    }
  }
}

TEST(Ring, MappingsPastTheFreeListAreUnmappedAndLaterRingsReadZero) {
  // The thread's cache keeps 16 bank mappings; the 17th and 18th rings
  // torn down at once are unmapped instead. Written words must not leak
  // into any later ring, recycled or freshly mapped. A size no other test
  // builds keeps this test's mappings to itself.
  for (int round = 0; round < 2; ++round) {
    sim::Simulation sim;
    std::vector<std::unique_ptr<Ring>> rings;
    for (int i = 0; i < 18; ++i) {
      rings.push_back(std::make_unique<Ring>(sim, RingConfig{.nodes = 3, .bank_words = 12288}));
      EXPECT_EQ(rings.back()->host_read(0, 4097), 0u);
      rings.back()->host_write(0, 4097, 0xC0DE);
    }
  }
}

TEST(Ring, NextRingOfTheSameSizeTakesNoPageFaults) {
  // ~Ring zeroes the granules its writes touched and keeps the mapping, so
  // the next take of the same size gets those pages back resident and
  // zero: a second ring's writes to them fault nothing in, where fresh
  // banks would fault in one page per granule. This checks that property
  // itself, not the process's fault count, which an allocator's own faults
  // (an ASan heap's, say) move from run to run.
  const RingConfig cfg{.nodes = 4};
  const usize bytes = usize{cfg.nodes} * cfg.bank_words * sizeof(u32);
  const auto write_granules = [&] {
    sim::Simulation sim;
    Ring ring(sim, cfg);
    for (u32 g = 0; g < 128; ++g) ring.host_write(0, g * 1024, g + 1);
    sim.run();
    EXPECT_EQ(ring.host_read(3, 127 * 1024), 128u);
  };
  write_granules();

  const sim::Region kept = sim::take_region(bytes, /*guard=*/false);
  ASSERT_FALSE(kept.fresh);
  const usize page = sim::page_bytes();
  std::vector<unsigned char> resident((bytes + page - 1) / page);
  ASSERT_EQ(mincore(kept.base, bytes, resident.data()), 0);
  const u32* words = static_cast<const u32*>(kept.base);
  for (u32 n = 0; n < cfg.nodes; ++n) {
    for (u32 g = 0; g < 128; ++g) {
      const usize w = usize{n} * cfg.bank_words + usize{g} * 1024;
      EXPECT_TRUE(resident[w * sizeof(u32) / page] & 1u) << "node " << n << " granule " << g;
      EXPECT_EQ(words[w], 0u) << "node " << n << " granule " << g;
    }
  }
  sim::give_region(kept.base, bytes, /*guard=*/false);
  write_granules();
  // The second ring took that region: its teardown gave it back last.
  const sim::Region again = sim::take_region(bytes, /*guard=*/false);
  EXPECT_EQ(again.base, kept.base);
  sim::give_region(again.base, bytes, /*guard=*/false);
}

TEST(Ring, BanksNeverTakeAStackMapping) {
  // A finished process leaves its stack in the thread's cache: 256 KiB and
  // a 4 KiB guard page, 266,240 B. A ring of 65 nodes x 1,024 words needs
  // exactly as many bytes, and must still get a mapping of its own rather
  // than the stack, whose first page faults.
  ASSERT_EQ(sim::detail::kProcStackBytes + sim::page_bytes(), 65u * 1024 * sizeof(u32));
  {
    sim::Simulation sim;
    sim.spawn("p", [](sim::Process& p) { p.delay(ns(1)); });
    sim.run();
  }
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 65, .bank_words = 1024});
  EXPECT_EQ(ring.host_read(0, 0), 0u);
  ring.host_write(0, 0, 0xBEEFu);
  sim.run();
  EXPECT_EQ(ring.host_read(64, 0), 0xBEEFu);
}

#if !defined(SCRNET_TEST_SHADOW_SANITIZER)
TEST(RingDeathTest, FailedMappingThrowsSystemErrorNamingTheSize) {
  // The child caps its address space at half the 1 GiB an N=256 ring
  // needs; the constructor must throw std::system_error naming the size
  // rather than fail inside the allocator.
  EXPECT_EXIT(
      {
        constexpr rlim_t kCap = rlim_t{512} << 20;
        rlimit lim{};
        getrlimit(RLIMIT_AS, &lim);
        lim.rlim_cur = kCap;
        if (setrlimit(RLIMIT_AS, &lim) != 0) _exit(2);
        sim::Simulation sim;
        try {
          Ring ring(sim, RingConfig{.nodes = 256});
        } catch (const std::system_error& e) {
          // exit, not _exit: a --coverage build records the child's lines.
          const std::string what = e.what();
          std::exit(what.find("1073741824 bytes") != std::string::npos ? 0 : 3);
        }
        _exit(1);
      },
      ::testing::ExitedWithCode(0), "");
}
#endif

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
    port.spin_until("test.flag", 0, [&] { return port.read_u32(301) != 0; });
    EXPECT_EQ(port.read_u32(300), 123u);
    got = true;
  });
  sim.run();
  EXPECT_TRUE(got);
}

}  // namespace
}  // namespace scrnet::scramnet
