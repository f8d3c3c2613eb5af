// Tests for the baseline network fabrics and the TCP stack cost model.
#include <gtest/gtest.h>

#include <numeric>

#include "common/bytes.h"
#include "netmodels/atm.h"
#include "netmodels/ethernet.h"
#include "netmodels/myrinet.h"
#include "netmodels/tcp.h"

namespace scrnet::netmodels {
namespace {

TEST(Ethernet, DeliversFrameWithPayloadIntact) {
  sim::Simulation sim;
  EthernetFabric net(sim, 4);
  std::vector<u8> data(200);
  fill_pattern(data, 3);
  net.transmit(Frame{0, 2, data});
  bool got = false;
  sim.spawn("rx", [&](sim::Process& p) {
    Frame f = net.rx(2).pop(p);
    EXPECT_EQ(f.src, 0u);
    EXPECT_TRUE(check_pattern(f.payload, 3));
    got = true;
  });
  sim.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(net.frames_delivered(), 1u);
  // The frame rides its delivery event by value, inline in the queue node.
  EXPECT_EQ(sim.queue_stats().heap_fallback, 0u);
}

TEST(Ethernet, MinFrameLatencyIsReasonable) {
  sim::Simulation sim;
  EthernetFabric net(sim, 2);
  net.transmit(Frame{0, 1, std::vector<u8>(41)});  // ~TCP header-only packet
  SimTime arrived = 0;
  sim.spawn("rx", [&](sim::Process& p) {
    net.rx(1).pop(p);
    arrived = p.now();
  });
  sim.run();
  // Cut-through: ~one 84-byte wire serialization (6.7us) + 4us switch.
  EXPECT_GT(to_us(arrived), 8.0);
  EXPECT_LT(to_us(arrived), 16.0);
}

TEST(Ethernet, StoreAndForwardDoublesSerialization) {
  auto one_way = [](bool snf) {
    sim::Simulation sim;
    EthernetConfig cfg;
    cfg.store_and_forward = snf;
    EthernetFabric net(sim, 2, cfg);
    net.transmit(Frame{0, 1, std::vector<u8>(1440)});
    SimTime arrived = 0;
    sim.spawn("rx", [&](sim::Process& p) {
      net.rx(1).pop(p);
      arrived = p.now();
    });
    sim.run();
    return to_us(arrived);
  };
  const double ct = one_way(false);
  const double snf = one_way(true);
  // A 1440B+38B frame serializes in ~118us; S&F pays it twice.
  EXPECT_NEAR(snf - ct, 118.0, 10.0);
}

TEST(Ethernet, BackToBackFramesSerializeOnLink) {
  sim::Simulation sim;
  EthernetFabric net(sim, 2);
  for (int i = 0; i < 4; ++i) net.transmit(Frame{0, 1, std::vector<u8>(1462)});
  std::vector<SimTime> arrivals;
  sim.spawn("rx", [&](sim::Process& p) {
    for (int i = 0; i < 4; ++i) {
      net.rx(1).pop(p);
      arrivals.push_back(p.now());
    }
  });
  sim.run();
  // Steady-state spacing = one full-frame wire time = 1500B*8/100Mb = 120us.
  for (int i = 1; i < 4; ++i) {
    const double gap = to_us(arrivals[static_cast<size_t>(i)] -
                             arrivals[static_cast<size_t>(i) - 1]);
    EXPECT_NEAR(gap, 120.0, 2.0);
  }
}

TEST(Atm, CellMathMatchesAal5) {
  EXPECT_EQ(AtmFabric::cells_for(0), 1u);    // 8B trailer -> 1 cell
  EXPECT_EQ(AtmFabric::cells_for(40), 1u);   // 48 exactly
  EXPECT_EQ(AtmFabric::cells_for(41), 2u);
  EXPECT_EQ(AtmFabric::cells_for(1024), 22u);  // 1032 -> 21.5 -> 22 cells
}

TEST(Atm, DeliveryAndCellTax) {
  sim::Simulation sim;
  AtmFabric net(sim, 2);
  std::vector<u8> data(960);  // + 8 trailer = 968 ec -> padded 1008 -> 21 cells
  fill_pattern(data, 9);
  net.transmit(Frame{0, 1, data});
  SimTime arrived = 0;
  sim.spawn("rx", [&](sim::Process& p) {
    Frame f = net.rx(1).pop(p);
    EXPECT_TRUE(check_pattern(f.payload, 9));
    arrived = p.now();
  });
  sim.run();
  // 21 cells on wire (with the first switch latency) at 155.52 Mb/s.
  const double wire_us = 21 * 53 * 8 / 155.52;
  EXPECT_NEAR(to_us(arrived), wire_us + 3.0, 1.5);
}

TEST(Myrinet, CutThroughIsFast) {
  sim::Simulation sim;
  MyrinetFabric net(sim, 2);
  net.transmit(Frame{0, 1, std::vector<u8>(64)});
  SimTime arrived = 0;
  sim.spawn("rx", [&](sim::Process& p) {
    net.rx(1).pop(p);
    arrived = p.now();
  });
  sim.run();
  // 80B at 1.28 Gb/s = 0.5us + 0.55us switch + 0.6us cable: ~1.7us.
  EXPECT_LT(to_us(arrived), 3.0);
}

TEST(MyrinetApi, RoundTripPreservesData) {
  sim::Simulation sim;
  MyrinetFabric net(sim, 2);
  std::vector<u8> msg(500);
  fill_pattern(msg, 4);
  sim.spawn("a", [&](sim::Process& p) {
    MyrinetApi api(net, 0);
    api.send(p, 1, msg);
    std::vector<u8> buf(500);
    api.recv(p, 1, buf, 500);
    EXPECT_TRUE(check_pattern(buf, 5));
  });
  sim.spawn("b", [&](sim::Process& p) {
    MyrinetApi api(net, 1);
    std::vector<u8> buf(500);
    api.recv(p, 0, buf, 500);
    EXPECT_TRUE(check_pattern(buf, 4));
    std::vector<u8> reply(500);
    fill_pattern(reply, 5);
    api.send(p, 0, reply);
  });
  sim.run();
}

TEST(MyrinetApi, ZeroByteMessage) {
  sim::Simulation sim;
  MyrinetFabric net(sim, 2);
  sim.spawn("a", [&](sim::Process& p) {
    MyrinetApi api(net, 0);
    api.send(p, 1, {});
  });
  SimTime done = 0;
  sim.spawn("b", [&](sim::Process& p) {
    MyrinetApi api(net, 1);
    std::vector<u8> buf(1);
    api.recv(p, 0, buf, 0);
    done = p.now();
  });
  sim.run();
  EXPECT_GT(done, 0);  // the dummy frame really crossed the wire
}

TEST(MyrinetApi, SmallMessageLatencyBand) {
  // Figure 2 context: "Myrinet API" small-message one-way latency should be
  // several times SCRAMNet's 6.5-7.8us (crossover near ~500 bytes).
  sim::Simulation sim;
  MyrinetFabric net(sim, 2);
  SimTime t0 = 0, t1 = 0;
  sim.spawn("a", [&](sim::Process& p) {
    MyrinetApi api(net, 0);
    std::vector<u8> m(4);
    t0 = p.now();
    api.send(p, 1, m);
  });
  sim.spawn("b", [&](sim::Process& p) {
    MyrinetApi api(net, 1);
    std::vector<u8> buf(4);
    api.recv(p, 0, buf, 4);
    t1 = p.now();
  });
  sim.run();
  const double us_oneway = to_us(t1 - t0);
  EXPECT_GT(us_oneway, 30.0);
  EXPECT_LT(us_oneway, 60.0);
}

TEST(Tcp, StreamDeliveryAcrossSegments) {
  sim::Simulation sim;
  EthernetFabric net(sim, 2);
  std::vector<u8> data(5000);  // > 3 MSS
  fill_pattern(data, 7);
  sim.spawn("tx", [&](sim::Process& p) {
    TcpStack stack(net, 0, TcpConfig::fast_ethernet());
    stack.send(p, 1, data);
  });
  sim.spawn("rx", [&](sim::Process& p) {
    TcpStack stack(net, 1, TcpConfig::fast_ethernet());
    std::vector<u8> buf(5000);
    // Read in two odd-sized pieces to exercise stream reassembly.
    stack.recv(p, 0, buf, 1234);
    stack.recv(p, 0, std::span<u8>(buf).subspan(1234), 5000 - 1234);
    EXPECT_TRUE(check_pattern(buf, 7));
  });
  sim.run();
}

TEST(Tcp, SmallMessageLatencyNearLinux20Numbers) {
  // One-way TCP latency over Fast Ethernet on the paper's class of hardware
  // was ~55-70us.
  sim::Simulation sim;
  EthernetFabric net(sim, 2);
  SimTime t0 = 0, t1 = 0;
  sim.spawn("tx", [&](sim::Process& p) {
    TcpStack stack(net, 0, TcpConfig::fast_ethernet());
    std::vector<u8> one(1);
    t0 = p.now();
    stack.send(p, 1, one);
  });
  sim.spawn("rx", [&](sim::Process& p) {
    TcpStack stack(net, 1, TcpConfig::fast_ethernet());
    std::vector<u8> buf(1);
    stack.recv(p, 0, buf, 1);
    t1 = p.now();
  });
  sim.run();
  const double us_oneway = to_us(t1 - t0);
  EXPECT_GT(us_oneway, 45.0);
  EXPECT_LT(us_oneway, 80.0);
}

TEST(Tcp, MyrinetTcpSlowerThanEthernetTcpForSmall) {
  auto one_way = [](auto make_fabric, TcpConfig cfg) {
    sim::Simulation sim;
    auto net = make_fabric(sim);
    SimTime t0 = 0, t1 = 0;
    sim.spawn("tx", [&](sim::Process& p) {
      TcpStack stack(*net, 0, cfg);
      std::vector<u8> one(1);
      t0 = p.now();
      stack.send(p, 1, one);
    });
    sim.spawn("rx", [&](sim::Process& p) {
      TcpStack stack(*net, 1, cfg);
      std::vector<u8> buf(1);
      stack.recv(p, 0, buf, 1);
      t1 = p.now();
    });
    sim.run();
    return to_us(t1 - t0);
  };
  const double fe = one_way(
      [](sim::Simulation& s) { return std::make_unique<EthernetFabric>(s, 2); },
      TcpConfig::fast_ethernet());
  const double myr = one_way(
      [](sim::Simulation& s) { return std::make_unique<MyrinetFabric>(s, 2); },
      TcpConfig::myrinet());
  EXPECT_GT(myr, fe);  // Figure 2: Myrinet(TCP) above Fast Ethernet(TCP)
}

TEST(Tcp, LargeTransferApproachesWireRate) {
  sim::Simulation sim;
  EthernetFabric net(sim, 2);
  constexpr usize kBytes = 1 << 20;
  SimTime t1 = 0;
  sim.spawn("tx", [&](sim::Process& p) {
    TcpStack stack(net, 0, TcpConfig::fast_ethernet());
    std::vector<u8> data(kBytes);
    stack.send(p, 1, data);
  });
  sim.spawn("rx", [&](sim::Process& p) {
    TcpStack stack(net, 1, TcpConfig::fast_ethernet());
    std::vector<u8> buf(kBytes);
    stack.recv(p, 0, buf, kBytes);
    t1 = p.now();
  });
  sim.run();
  const double secs = static_cast<double>(t1) / 1e12;
  const double mbps = kBytes / 1e6 / secs;
  EXPECT_GT(mbps, 8.0);    // decent fraction of 12.5 MB/s line rate
  EXPECT_LE(mbps, 12.5);   // cannot beat the wire
}

TEST(Tcp, PerSourceDemux) {
  sim::Simulation sim;
  EthernetFabric net(sim, 3);
  sim.spawn("tx1", [&](sim::Process& p) {
    TcpStack stack(net, 0, TcpConfig::fast_ethernet());
    std::vector<u8> m(100);
    fill_pattern(m, 1);
    stack.send(p, 2, m);
  });
  sim.spawn("tx2", [&](sim::Process& p) {
    TcpStack stack(net, 1, TcpConfig::fast_ethernet());
    std::vector<u8> m(100);
    fill_pattern(m, 2);
    stack.send(p, 2, m);
  });
  sim.spawn("rx", [&](sim::Process& p) {
    TcpStack stack(net, 2, TcpConfig::fast_ethernet());
    std::vector<u8> b1(100), b2(100);
    stack.recv(p, 1, b2, 100);  // deliberately read the later stream first
    stack.recv(p, 0, b1, 100);
    EXPECT_TRUE(check_pattern(b1, 1));
    EXPECT_TRUE(check_pattern(b2, 2));
  });
  sim.run();
}

}  // namespace
}  // namespace scrnet::netmodels
