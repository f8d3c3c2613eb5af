// Tests for the NIC DMA engine path (Section 2: PIO or DMA).
#include <gtest/gtest.h>

#include "bbp/endpoint.h"
#include "common/bytes.h"
#include "scramnet/ring.h"
#include "scramnet/sim_port.h"

namespace scrnet::scramnet {
namespace {

TEST(Dma, CpuTimeIsSetupPlusCompleteOnly) {
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 1u << 14});
  sim.spawn("host", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    std::vector<u32> data(1000, 7);
    const SimTime t0 = p.now();
    port.dma_write(100, data);
    // The process was blocked only for setup + completion, not the burst.
    EXPECT_EQ(p.now() - t0, HostTimings::dma_setup + HostTimings::dma_complete);
  });
  sim.run();
  for (u32 i = 0; i < 1000; ++i) EXPECT_EQ(ring.host_read(1, 100 + i), 7u);
}

TEST(Dma, LaterPioWriteStaysOrderedBehindDma) {
  // BBP correctness depends on this: a flag written right after a DMA
  // payload must reach remote banks after the payload.
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 1u << 14});
  bool checked = false;
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    std::vector<u32> data(2000, 9);
    port.dma_write(100, data);     // NIC still streaming when we return
    port.write_u32(50, 1);         // flag: must trail the payload
  });
  sim.spawn("rx", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    port.spin_until("test.flag", 0, [&] { return port.read_u32(50) != 0; });
    // Flag visible: every payload word must already be here.
    std::vector<u32> out(2000);
    port.read_block(100, out);
    for (u32 v : out) ASSERT_EQ(v, 9u);
    checked = true;
  });
  sim.run();
  EXPECT_TRUE(checked);
}

TEST(Dma, BbpUsesDmaAboveThreshold) {
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 1u << 15});
  bbp::Config cfg;
  cfg.dma_threshold_bytes = 256;
  u64 dma_sends = 0;
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    bbp::Endpoint ep(port, 2, 0, cfg);
    std::vector<u8> small(100), large(1000);
    fill_pattern(small, 1);
    fill_pattern(large, 2);
    ASSERT_TRUE(ep.send(1, small).ok());  // below threshold: PIO
    ASSERT_TRUE(ep.send(1, large).ok());  // above: DMA
    ep.drain();
    dma_sends = ep.stats().dma_sends;
  });
  sim.spawn("rx", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    bbp::Endpoint ep(port, 2, 1, cfg);
    std::vector<u8> buf(1000);
    auto a = ep.recv(0, buf);
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(check_pattern(std::span<const u8>(buf.data(), 100), 1));
    auto b = ep.recv(0, buf);
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(check_pattern(std::span<const u8>(buf.data(), 1000), 2));
  });
  sim.run();
  EXPECT_EQ(dma_sends, 1u);
}

}  // namespace
}  // namespace scrnet::scramnet
