// Tests for scrmpi over both channel devices (ch_bbp / ch_sock).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/bytes.h"
#include "harness/cluster.h"
#include "netmodels/ethernet.h"
#include "netmodels/tcp.h"
#include "scrmpi/ch_sock.h"
#include "seeded_timing.h"

namespace scrnet::scrmpi {
namespace {

using harness::run_scramnet_mpi;
using harness::run_tcp_mpi;
using harness::TcpFabricKind;

using Body = std::function<void(sim::Process&, Mpi&)>;

/// Device under test for the parameterized correctness suite.
enum class Device { kBbp, kSockFe, kSockAtm, kSockMyr };

std::string device_name(Device d) {
  switch (d) {
    case Device::kBbp: return "ScramnetBbp";
    case Device::kSockFe: return "SockFastEthernet";
    case Device::kSockAtm: return "SockAtm";
    case Device::kSockMyr: return "SockMyrinet";
  }
  return "?";
}

SimTime run_on(Device d, u32 nodes, const Body& body) {
  switch (d) {
    case Device::kBbp: return run_scramnet_mpi(nodes, body);
    case Device::kSockFe: return run_tcp_mpi(nodes, TcpFabricKind::kFastEthernet, body);
    case Device::kSockAtm: return run_tcp_mpi(nodes, TcpFabricKind::kAtm, body);
    case Device::kSockMyr: return run_tcp_mpi(nodes, TcpFabricKind::kMyrinet, body);
  }
  return 0;
}

class MpiDeviceTest : public ::testing::TestWithParam<Device> {};

INSTANTIATE_TEST_SUITE_P(AllDevices, MpiDeviceTest,
                         ::testing::Values(Device::kBbp, Device::kSockFe,
                                           Device::kSockAtm, Device::kSockMyr),
                         [](const auto& ti) { return device_name(ti.param); });

TEST_P(MpiDeviceTest, BlockingSendRecv) {
  run_on(GetParam(), 2, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    if (mpi.rank(w) == 0) {
      std::vector<u8> msg(64);
      fill_pattern(msg, 42);
      mpi.send(msg.data(), 64, Datatype::kByte, 1, 7, w);
    } else {
      std::vector<u8> buf(64);
      MpiStatus st = mpi.recv(buf.data(), 64, Datatype::kByte, 0, 7, w);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.count_bytes, 64u);
      EXPECT_TRUE(check_pattern(buf, 42));
    }
  });
}

TEST_P(MpiDeviceTest, TagMatchingOutOfOrder) {
  run_on(GetParam(), 2, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    if (mpi.rank(w) == 0) {
      i32 a = 111, b = 222;
      mpi.send(&a, 1, Datatype::kInt32, 1, /*tag=*/1, w);
      mpi.send(&b, 1, Datatype::kInt32, 1, /*tag=*/2, w);
    } else {
      i32 x = 0, y = 0;
      // Receive tag 2 first: tag 1's message must wait in the unexpected
      // queue and still be delivered afterwards.
      mpi.recv(&y, 1, Datatype::kInt32, 0, 2, w);
      mpi.recv(&x, 1, Datatype::kInt32, 0, 1, w);
      EXPECT_EQ(x, 111);
      EXPECT_EQ(y, 222);
    }
  });
}

TEST_P(MpiDeviceTest, WildcardSourceAndTag) {
  run_on(GetParam(), 3, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    const i32 me = mpi.rank(w);
    if (me == 1 || me == 2) {
      const i32 v = me * 10;
      mpi.send(&v, 1, Datatype::kInt32, 0, me, w);
    } else {
      i32 sum = 0;
      for (int i = 0; i < 2; ++i) {
        i32 v = 0;
        MpiStatus st = mpi.recv(&v, 1, Datatype::kInt32, kAnySource, kAnyTag, w);
        EXPECT_EQ(v, st.source * 10);
        EXPECT_EQ(st.tag, st.source);
        sum += v;
      }
      EXPECT_EQ(sum, 30);
    }
  });
}

TEST_P(MpiDeviceTest, IsendIrecvWaitall) {
  run_on(GetParam(), 2, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    constexpr int kN = 8;
    if (mpi.rank(w) == 0) {
      std::vector<std::vector<u8>> msgs(kN);
      std::vector<Request> reqs;
      for (int i = 0; i < kN; ++i) {
        msgs[static_cast<size_t>(i)].resize(32);
        fill_pattern(msgs[static_cast<size_t>(i)], static_cast<u32>(i));
        reqs.push_back(mpi.isend(msgs[static_cast<size_t>(i)].data(), 32,
                                 Datatype::kByte, 1, i, w));
      }
      mpi.waitall(reqs, w);
    } else {
      std::vector<std::vector<u8>> bufs(kN, std::vector<u8>(32));
      std::vector<Request> reqs;
      for (int i = 0; i < kN; ++i)
        reqs.push_back(mpi.irecv(bufs[static_cast<size_t>(i)].data(), 32,
                                 Datatype::kByte, 0, i, w));
      mpi.waitall(reqs, w);
      for (int i = 0; i < kN; ++i)
        EXPECT_TRUE(check_pattern(bufs[static_cast<size_t>(i)], static_cast<u32>(i)));
    }
  });
}

TEST_P(MpiDeviceTest, RendezvousLargeMessage) {
  run_on(GetParam(), 2, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    // Larger than both devices' eager limits (BBP: data-partition/4).
    const u32 bytes = 300 * 1024;
    if (mpi.rank(w) == 0) {
      std::vector<u8> msg(bytes);
      fill_pattern(msg, 99);
      mpi.send(msg.data(), bytes, Datatype::kByte, 1, 0, w);
    } else {
      std::vector<u8> buf(bytes);
      MpiStatus st = mpi.recv(buf.data(), bytes, Datatype::kByte, 0, 0, w);
      EXPECT_EQ(st.count_bytes, bytes);
      EXPECT_TRUE(check_pattern(buf, 99));
    }
  });
}

TEST_P(MpiDeviceTest, RendezvousUnexpectedRts) {
  // RTS arrives before the receive is posted.
  run_on(GetParam(), 2, [](sim::Process& p, Mpi& mpi) {
    const Comm& w = mpi.world();
    const u32 bytes = 200 * 1024;
    if (mpi.rank(w) == 0) {
      std::vector<u8> msg(bytes);
      fill_pattern(msg, 5);
      mpi.send(msg.data(), bytes, Datatype::kByte, 1, 3, w);
    } else {
      p.delay(ms(2));  // let the RTS land in the unexpected queue
      std::vector<u8> buf(bytes);
      mpi.recv(buf.data(), bytes, Datatype::kByte, 0, 3, w);
      EXPECT_TRUE(check_pattern(buf, 5));
    }
  });
}

TEST_P(MpiDeviceTest, ProbeRevealsEnvelope) {
  run_on(GetParam(), 2, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    if (mpi.rank(w) == 0) {
      std::vector<u8> msg(48);
      mpi.send(msg.data(), 48, Datatype::kByte, 1, 9, w);
    } else {
      MpiStatus st = mpi.probe(kAnySource, kAnyTag, w);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 9);
      EXPECT_EQ(st.count_bytes, 48u);
      std::vector<u8> buf(st.count_bytes);
      mpi.recv(buf.data(), st.count_bytes, Datatype::kByte, st.source, st.tag, w);
    }
  });
}

TEST_P(MpiDeviceTest, SendrecvExchanges) {
  run_on(GetParam(), 2, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    const i32 me = mpi.rank(w);
    const i32 peer = 1 - me;
    i32 mine = me + 100, theirs = -1;
    mpi.sendrecv(&mine, 1, Datatype::kInt32, peer, 0, &theirs, 1, Datatype::kInt32,
                 peer, 0, w);
    EXPECT_EQ(theirs, peer + 100);
  });
}

TEST_P(MpiDeviceTest, BcastPointToPoint) {
  run_on(GetParam(), 4, [](sim::Process&, Mpi& mpi) {
    mpi.set_bcast_algo(CollAlgo::kPointToPoint);
    const Comm& w = mpi.world();
    std::vector<u8> buf(256);
    if (mpi.rank(w) == 2) fill_pattern(buf, 8);  // non-zero root
    mpi.bcast(buf.data(), 256, Datatype::kByte, 2, w);
    EXPECT_TRUE(check_pattern(buf, 8));
  });
}

TEST_P(MpiDeviceTest, BarrierSynchronizes) {
  const Device dev = GetParam();
  run_on(dev, 4, [](sim::Process& p, Mpi& mpi) {
    mpi.set_barrier_algo(CollAlgo::kPointToPoint);
    const Comm& w = mpi.world();
    // Rank 3 arrives late; nobody may leave before it arrives.
    SimTime arrive;
    if (mpi.rank(w) == 3) p.delay(ms(5));
    arrive = p.now();
    (void)arrive;
    mpi.barrier(w);
    EXPECT_GE(p.now(), ms(5));
  });
}

TEST_P(MpiDeviceTest, ReduceSumInts) {
  run_on(GetParam(), 4, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    const i32 me = mpi.rank(w);
    std::vector<i32> v(16);
    for (usize i = 0; i < 16; ++i) v[i] = me + static_cast<i32>(i);
    std::vector<i32> out(16, -1);
    mpi.reduce(v.data(), out.data(), 16, Datatype::kInt32, ReduceOp::kSum, 0, w);
    if (me == 0) {
      for (usize i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], 6 + 4 * static_cast<i32>(i));  // sum over ranks 0..3
    }
  });
}

TEST_P(MpiDeviceTest, AllreduceMaxDoubles) {
  run_on(GetParam(), 3, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    const double mine = 1.5 * (mpi.rank(w) + 1);
    double out = 0;
    mpi.allreduce(&mine, &out, 1, Datatype::kDouble, ReduceOp::kMax, w);
    EXPECT_DOUBLE_EQ(out, 4.5);
  });
}

TEST_P(MpiDeviceTest, GatherScatterRoundTrip) {
  run_on(GetParam(), 4, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    const i32 me = mpi.rank(w);
    // Scatter rows of a root matrix, double them, gather back.
    std::vector<i32> matrix(16);
    if (me == 1) std::iota(matrix.begin(), matrix.end(), 0);
    std::vector<i32> row(4);
    mpi.scatter(matrix.data(), row.data(), 4, Datatype::kInt32, 1, w);
    for (i32& x : row) x *= 2;
    mpi.gather(row.data(), 4, Datatype::kInt32, matrix.data(), 1, w);
    if (me == 1) {
      for (usize i = 0; i < 16; ++i) EXPECT_EQ(matrix[i], 2 * static_cast<i32>(i));
    }
  });
}

TEST_P(MpiDeviceTest, AllgatherCollectsAll) {
  run_on(GetParam(), 4, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    const u32 me = static_cast<u32>(mpi.rank(w));
    const u32 mine = me * me + 7;
    std::vector<u32> all(4, 0);
    mpi.allgather(&mine, 1, Datatype::kUint32, all.data(), w);
    for (u32 r = 0; r < 4; ++r) EXPECT_EQ(all[r], r * r + 7);
  });
}

TEST_P(MpiDeviceTest, CommSplitIsolatesTraffic) {
  run_on(GetParam(), 4, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    const i32 me = mpi.rank(w);
    // Even / odd split, key reverses order within the odd group.
    Comm sub = mpi.split(w, me % 2, me % 2 == 1 ? -me : me);
    EXPECT_EQ(mpi.size(sub), 2u);
    if (me % 2 == 1) {
      // key = -1 for world rank 1, -3 for world rank 3 -> rank 3 first.
      EXPECT_EQ(sub.world_of(0), 3u);
      EXPECT_EQ(sub.world_of(1), 1u);
    }
    // Exchange within the subcommunicator.
    const i32 sub_me = mpi.rank(sub);
    const i32 peer = 1 - sub_me;
    i32 out = me, in = -1;
    mpi.sendrecv(&out, 1, Datatype::kInt32, peer, 0, &in, 1, Datatype::kInt32, peer,
                 0, sub);
    EXPECT_EQ(in % 2, me % 2);  // partner is in my color group
    EXPECT_NE(in, me);
  });
}

TEST_P(MpiDeviceTest, DupGivesIndependentContext) {
  run_on(GetParam(), 2, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    Comm d = mpi.dup(w);
    const i32 me = mpi.rank(w);
    if (me == 0) {
      i32 a = 1, b = 2;
      mpi.send(&a, 1, Datatype::kInt32, 1, 0, w);
      mpi.send(&b, 1, Datatype::kInt32, 1, 0, d);
    } else {
      i32 a = 0, b = 0;
      // Receive from the dup first: same tag+src, different context.
      mpi.recv(&b, 1, Datatype::kInt32, 0, 0, d);
      mpi.recv(&a, 1, Datatype::kInt32, 0, 0, w);
      EXPECT_EQ(a, 1);
      EXPECT_EQ(b, 2);
    }
  });
}

TEST_P(MpiDeviceTest, TruncationReported) {
  run_on(GetParam(), 2, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    if (mpi.rank(w) == 0) {
      std::vector<u8> msg(100);
      mpi.send(msg.data(), 100, Datatype::kByte, 1, 0, w);
    } else {
      std::vector<u8> buf(10);
      MpiStatus st = mpi.recv(buf.data(), 10, Datatype::kByte, 0, 0, w);
      EXPECT_TRUE(st.truncated);
      EXPECT_EQ(st.count_bytes, 100u);
    }
  });
}

TEST_P(MpiDeviceTest, SelfSendCompletes) {
  run_on(GetParam(), 2, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    const i32 me = mpi.rank(w);
    i32 v = me + 55, got = -1;
    Request rr = mpi.irecv(&got, 1, Datatype::kInt32, me, 0, w);
    mpi.send(&v, 1, Datatype::kInt32, me, 0, w);
    mpi.wait(rr, w);
    EXPECT_EQ(got, me + 55);
  });
}

// ---------------------------------------------------------------------------
// SCRAMNet-specific: the paper's native-multicast collectives.
// ---------------------------------------------------------------------------

TEST(MpiNative, BcastUsesSingleMcast) {
  // Build the cluster by hand so the root's BBP endpoint stats are visible:
  // a native bcast must appear as exactly one hardware multicast.
  sim::Simulation sim;
  scramnet::Ring ring(sim, scramnet::RingConfig{});
  u64 root_mcasts = 0, root_sends = 0;
  for (u32 r = 0; r < 4; ++r) {
    sim.spawn("rank" + std::to_string(r), [&, r](sim::Process& p) {
      scramnet::SimHostPort port(ring, r, p);
      bbp::Endpoint ep(port, 4, r);
      BbpChannel dev(ep);
      Mpi mpi(dev);
      mpi.set_bcast_algo(CollAlgo::kNativeMcast);
      const Comm& w = mpi.world();
      std::vector<u8> buf(512);
      if (mpi.rank(w) == 0) fill_pattern(buf, 17);
      mpi.bcast(buf.data(), 512, Datatype::kByte, 0, w);
      EXPECT_TRUE(check_pattern(buf, 17));
      if (r == 0) {
        root_mcasts = ep.stats().mcasts;
        root_sends = ep.stats().sends;
      }
    });
  }
  sim.run();
  EXPECT_EQ(root_mcasts, 1u);
  EXPECT_EQ(root_sends, 0u);
}

TEST(MpiNative, BcastIsNotSynchronizing) {
  // Paper: "the root of the broadcast does not wait for other processes to
  // arrive at the MPI_Bcast call."
  SimTime root_done = 0;
  run_scramnet_mpi(4, [&](sim::Process& p, Mpi& mpi) {
    mpi.set_bcast_algo(CollAlgo::kNativeMcast);
    const Comm& w = mpi.world();
    std::vector<u8> buf(16);
    if (mpi.rank(w) == 0) {
      mpi.bcast(buf.data(), 16, Datatype::kByte, 0, w);
      root_done = p.now();
    } else {
      p.delay(ms(50));  // receivers arrive *much* later
      mpi.bcast(buf.data(), 16, Datatype::kByte, 0, w);
    }
  });
  EXPECT_LT(to_us(root_done), 1000.0);  // root left immediately
}

TEST(MpiNative, MultipleBcastsMatchInOrder) {
  run_scramnet_mpi(3, [](sim::Process&, Mpi& mpi) {
    mpi.set_bcast_algo(CollAlgo::kNativeMcast);
    const Comm& w = mpi.world();
    for (u32 i = 0; i < 10; ++i) {
      u32 v = (mpi.rank(w) == 0) ? i * 3 + 1 : 0u;
      mpi.bcast(&v, 1, Datatype::kUint32, 0, w);
      EXPECT_EQ(v, i * 3 + 1);
    }
  });
}

TEST(MpiNative, BarrierSynchronizesWithMcastRelease) {
  run_scramnet_mpi(4, [](sim::Process& p, Mpi& mpi) {
    mpi.set_barrier_algo(CollAlgo::kNativeMcast);
    const Comm& w = mpi.world();
    if (mpi.rank(w) == 2) p.delay(ms(3));
    mpi.barrier(w);
    EXPECT_GE(p.now(), ms(3));
    // And a second barrier immediately after must also work (epochs).
    mpi.barrier(w);
  });
}

TEST(MpiNative, MixedAlgosAgree) {
  // Alternate native and p2p collectives in one run.
  run_scramnet_mpi(4, [](sim::Process&, Mpi& mpi) {
    const Comm& w = mpi.world();
    for (int round = 0; round < 4; ++round) {
      mpi.set_bcast_algo(round % 2 ? CollAlgo::kPointToPoint : CollAlgo::kNativeMcast);
      mpi.set_barrier_algo(round % 2 ? CollAlgo::kNativeMcast : CollAlgo::kPointToPoint);
      u32 v = mpi.rank(w) == 0 ? static_cast<u32>(round) + 7 : 0u;
      mpi.bcast(&v, 1, Datatype::kUint32, 0, w);
      EXPECT_EQ(v, static_cast<u32>(round) + 7);
      mpi.barrier(w);
    }
  });
}

// ---------------------------------------------------------------------------
// ch_bbp frame reception
// ---------------------------------------------------------------------------

/// Forwards every call to a SimHostPort, but every read of a sender's
/// buffer descriptor announces `len` bytes, whatever the sender wrote.
class OversizeDescPort final : public scramnet::MemPort {
 public:
  OversizeDescPort(scramnet::SimHostPort& p, const bbp::Layout& sender, u32 len)
      : p_(p), lo_(sender.desc_addr(0, 0)), hi_(sender.desc_addr(0, sender.slots)),
        len_(len) {}
  u32 bank_words() const override { return p_.bank_words(); }
  void write_u32(u32 a, u32 v) override { p_.write_u32(a, v); }
  u32 read_u32(u32 a) override { return p_.read_u32(a); }
  void write_block(u32 a, std::span<const u32> w) override { p_.write_block(a, w); }
  void read_block(u32 a, std::span<u32> out) override {
    p_.read_block(a, out);
    if (a >= lo_ && a < hi_) out[2] = len_;  // descriptor: {seq, offset, len}
  }
  void dma_write(u32 a, std::span<const u32> w) override { p_.dma_write(a, w); }
  SimTime now() const override { return p_.now(); }
  u32 peek_u32(u32 a) override { return p_.peek_u32(a); }
  void fence() override { p_.fence(); }
  bool spin_until(const char* site, SimTime deadline, sim::FnRef<bool()> ready,
                  scramnet::Backoff backoff, sim::FnRef<void()> stall) override {
    return p_.spin_until(site, deadline, ready, backoff, stall);
  }
  void cpu_delay(SimTime dt) override { p_.cpu_delay(dt); }
  void watch_range(u32 lo, u32 hi) override { p_.watch_range(lo, hi); }
  void wait_write() override { p_.wait_write(); }

 private:
  scramnet::SimHostPort& p_;
  u32 lo_, hi_, len_;
};

TEST(ChSock, FramePolledBetweenItsSegmentsArrivesWholeAndInOrder) {
  // A 5000-byte payload spans four Fast Ethernet segments and a 16-byte
  // one follows it. The receiver polls every 500 ns, so most polls find a
  // partial frame or nothing new; both packets must still arrive whole,
  // in order and once.
  sim::Simulation sim;
  sim.set_time_limit(ms(10));  // a lost packet fails instead of spinning
  netmodels::EthernetFabric net(sim, 2);
  std::vector<u8> big(5000), small(16);
  fill_pattern(big, 3);
  fill_pattern(small, 9);
  sim.spawn("tx", [&](sim::Process& p) {
    netmodels::TcpStack stack(net, 0, netmodels::TcpConfig::fast_ethernet());
    SockChannel ch(stack, p, 2);
    PktHeader h;
    h.tag = 1;
    h.len = static_cast<u32>(big.size());
    EXPECT_TRUE(ch.send_packet(1, h, big).ok());
    h.tag = 2;
    h.len = static_cast<u32>(small.size());
    EXPECT_TRUE(ch.send_packet(1, h, small).ok());
  });
  std::vector<Packet> got;
  u32 partial_polls = 0;
  sim.spawn("rx", [&](sim::Process& p) {
    netmodels::TcpStack stack(net, 1, netmodels::TcpConfig::fast_ethernet());
    SockChannel ch(stack, p, 2);
    ch.spin_until("test.poll", 0, [&] {
      while (std::optional<Packet> pkt = ch.poll_packet()) {
        got.push_back(std::move(*pkt));
        if (got.size() == 2) return true;
      }
      if (stack.buffered(0) > 0) ++partial_polls;
      return false;
    });
    EXPECT_FALSE(ch.poll_packet().has_value());
  });
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].hdr.tag, 1);
  EXPECT_EQ(got[0].payload, big);
  EXPECT_EQ(got[1].hdr.tag, 2);
  EXPECT_EQ(got[1].payload, small);
  EXPECT_GT(partial_polls, 0u);  // some polls fell between the segments
}

TEST(ChBbp, OversizeAnnouncedFrameIsDropped) {
  // A descriptor that announces more bytes than any sender can post reads
  // as truncated: poll_packet() drops the frame instead of returning it.
  sim::Simulation sim;
  scramnet::Ring ring(sim, scramnet::RingConfig{.nodes = 2, .bank_words = 4096});
  std::optional<Packet> got;
  u64 dropped = 0;
  sim.spawn("tx", [&](sim::Process& p) {
    scramnet::SimHostPort port(ring, 0, p);
    bbp::Endpoint ep(port, 2, 0);
    BbpChannel dev(ep);
    std::vector<u8> payload(8);
    fill_pattern(payload, 3);
    PktHeader hdr;
    hdr.len = static_cast<u32>(payload.size());
    ASSERT_TRUE(dev.send_packet(1, hdr, payload).ok());
    ASSERT_TRUE(ep.drain().ok());
  });
  sim.spawn("rx", [&](sim::Process& p) {
    scramnet::SimHostPort sim_port(ring, 1, p);
    const bbp::Layout layout(sim_port.bank_words(), 2, bbp::Config{}.slots);
    const u32 oversize = kHeaderBytes + layout.max_message_bytes() + 4;
    OversizeDescPort port(sim_port, layout, oversize);
    bbp::Endpoint ep(port, 2, 1);
    BbpChannel dev(ep);
    p.delay(us(100));  // the frame has landed
    got = dev.poll_packet();
    dropped = dev.dropped_frames();
  });
  sim.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(dropped, 1u);
}

// ---------------------------------------------------------------------------
// Seeded adversarial timing (seeded_timing.h): the whole MPI stack over
// ch_bbp must hold under every propagation timing.
// ---------------------------------------------------------------------------

/// The first of 256 seeds on which `body(p, mpi, rng)`, run on every rank
/// of an `n`-node ch_bbp cluster, fails. 4 Ki-word banks: zero-filling the
/// default 4 MiB ones would cost more than the runs.
std::optional<u64> first_failing_seed(
    u32 n, const std::function<void(sim::Process&, Mpi&, Rng&)>& body) {
  return seeded::first_failing_seed(256, [&](u64 seed) {
    seeded::Timing t(seed, n, scramnet::RingConfig{.bank_words = 4096});
    harness::ScramnetOptions opts;
    opts.ring = t.ring;
    run_scramnet_mpi(
        n,
        [&](sim::Process& p, Mpi& mpi) {
          const u32 r = static_cast<u32>(mpi.rank(mpi.world()));
          t.enter(p, r);
          body(p, mpi, t.rng[r]);
        },
        opts);
    return true;
  });
}

TEST(MpiSeeded, PingPong) {
  const auto body = [](sim::Process& p, Mpi& mpi, Rng& rng) {
    const Comm& w = mpi.world();
    std::vector<u8> buf(256), msg(256);
    for (int i = 0; i < 10; ++i) {
      if (mpi.rank(w) == 0) {
        fill_pattern(msg, static_cast<u32>(i));
        mpi.send(msg.data(), 256, Datatype::kByte, 1, i, w);
        MpiStatus st = mpi.recv(buf.data(), 256, Datatype::kByte, 1, i, w);
        EXPECT_EQ(st.tag, i);
        EXPECT_TRUE(check_pattern(buf, static_cast<u32>(i) ^ 0x55u));
      } else {
        mpi.recv(buf.data(), 256, Datatype::kByte, 0, i, w);
        EXPECT_TRUE(check_pattern(buf, static_cast<u32>(i)));
        fill_pattern(msg, static_cast<u32>(i) ^ 0x55u);
        mpi.send(msg.data(), 256, Datatype::kByte, 0, i, w);
      }
      p.delay(static_cast<SimTime>(rng.below(us(3))));
    }
  };
  EXPECT_EQ(first_failing_seed(2, body), std::nullopt);
}

TEST(MpiSeeded, NativeMcastCollectives) {
  const auto body = [](sim::Process& p, Mpi& mpi, Rng& rng) {
    const Comm& w = mpi.world();
    mpi.set_bcast_algo(CollAlgo::kNativeMcast);
    mpi.set_barrier_algo(CollAlgo::kNativeMcast);
    for (u32 round = 0; round < 5; ++round) {
      u32 v = (mpi.rank(w) == 0) ? round * 7 + 1 : 0u;
      mpi.bcast(&v, 1, Datatype::kUint32, 0, w);
      EXPECT_EQ(v, round * 7 + 1);
      i32 sum = 0;
      const i32 mine = mpi.rank(w) + 1;
      mpi.allreduce(&mine, &sum, 1, Datatype::kInt32, ReduceOp::kSum, w);
      EXPECT_EQ(sum, 10);
      mpi.barrier(w);
      p.delay(static_cast<SimTime>(rng.below(us(3))));
    }
  };
  EXPECT_EQ(first_failing_seed(4, body), std::nullopt);
}

TEST(MpiSeeded, ManyToOneWildcards) {
  constexpr int kPer = 20;
  const auto body = [](sim::Process& p, Mpi& mpi, Rng& rng) {
    const Comm& w = mpi.world();
    const i32 r = mpi.rank(w);
    if (r == 0) {
      // From each sender s in {1,2,3}: s*1000 + i, in order, i < kPer.
      std::vector<i64> next(4, 0);
      for (int i = 0; i < 3 * kPer; ++i) {
        i64 v = 0;
        MpiStatus st = mpi.recv(&v, 1, Datatype::kInt64, kAnySource, kAnyTag, w);
        ASSERT_TRUE(st.source >= 1 && st.source <= 3);
        EXPECT_EQ(st.tag, st.source);
        EXPECT_EQ(v, st.source * 1000 + next[static_cast<usize>(st.source)]++);
      }
      EXPECT_EQ(next, (std::vector<i64>{0, kPer, kPer, kPer}));
    } else {
      for (int i = 0; i < kPer; ++i) {
        const i64 v = static_cast<i64>(r) * 1000 + i;
        mpi.send(&v, 1, Datatype::kInt64, 0, r, w);
        p.delay(static_cast<SimTime>(rng.below(us(2))));
      }
    }
  };
  EXPECT_EQ(first_failing_seed(4, body), std::nullopt);
}

// ---------------------------------------------------------------------------
// Latency calibration: the paper's Figure 1 headline numbers.
// ---------------------------------------------------------------------------

double mpi_oneway_us(u32 bytes) {
  SimTime t0 = 0, t1 = 0;
  run_scramnet_mpi(2, [&](sim::Process& p, Mpi& mpi) {
    const Comm& w = mpi.world();
    std::vector<u8> buf(std::max<u32>(bytes, 1));
    if (mpi.rank(w) == 0) {
      t0 = p.now();
      mpi.send(buf.data(), bytes, Datatype::kByte, 1, 0, w);
    } else {
      mpi.recv(buf.data(), bytes, Datatype::kByte, 0, 0, w);
      t1 = p.now();
    }
  });
  return to_us(t1 - t0);
}

TEST(MpiCalibration, ZeroByteLatencyNearPaper) {
  // Paper: 44 us at the MPI layer.
  const double us0 = mpi_oneway_us(0);
  EXPECT_GT(us0, 30.0);
  EXPECT_LT(us0, 58.0);
}

TEST(MpiCalibration, MpiAddsRoughlyConstantOverhead) {
  // Paper Figure 1: "the MPI layer only adds a constant overhead".
  const double d0 = mpi_oneway_us(0);
  const double d256 = mpi_oneway_us(256);
  const double d1000 = mpi_oneway_us(1000);
  // Overhead growth should be dominated by per-byte wire costs, i.e. the
  // MPI-vs-API gap stays in a narrow band (checked against API in bench).
  EXPECT_LT(d256 - d0, 90.0);
  EXPECT_LT(d1000 - d256, 260.0);
}

}  // namespace
}  // namespace scrnet::scrmpi
