// Failure-injection tests: link failures on the ring, with and without
// the redundant-cabling option, their effect on the BillBoard Protocol,
// and the deterministic FaultPlan layer (validation, flapping links,
// wrong-speed NICs, seeded frame loss, hierarchy host dials), plus the
// bounded MPI waits that must end in a timeout when a packet is lost.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bbp/endpoint.h"
#include "common/bytes.h"
#include "fault/plan.h"
#include "harness/benchops.h"
#include "harness/cluster.h"
#include "netmodels/ethernet.h"
#include "scramnet/hierarchy.h"
#include "scramnet/ring.h"
#include "scramnet/sim_port.h"
#include "scrmpi/mpi.h"

namespace scrnet::scramnet {
namespace {

TEST(Fault, LostDeliveryWithoutRedundancy) {
  sim::Simulation sim;
  RingConfig cfg;
  cfg.nodes = 4;
  cfg.bank_words = 1024;
  Ring ring(sim, cfg);
  ring.fail_link(1);  // breaks 1 -> 2
  ring.host_write(0, 10, 99);
  sim.run();
  // Node 1 (before the break) gets it; nodes 2 and 3 never do.
  EXPECT_EQ(ring.host_read(1, 10), 99u);
  EXPECT_EQ(ring.host_read(2, 10), 0u);
  EXPECT_EQ(ring.host_read(3, 10), 0u);
  EXPECT_EQ(ring.packets_lost(), 2u);
}

TEST(Fault, RedundantRingDelaysButDelivers) {
  sim::Simulation sim;
  RingConfig cfg;
  cfg.nodes = 4;
  cfg.bank_words = 1024;
  cfg.redundant_ring = true;
  cfg.switchover = us(50);
  Ring ring(sim, cfg);
  ring.fail_link(1);
  ring.host_write(0, 10, 99);
  // Before the switchover completes, downstream nodes have stale data...
  sim.run_until(us(20));
  EXPECT_EQ(ring.host_read(1, 10), 99u);  // unaffected path
  EXPECT_EQ(ring.host_read(3, 10), 0u);
  // ...after it, everything arrived.
  sim.run_until(us(60));
  EXPECT_EQ(ring.host_read(2, 10), 99u);
  EXPECT_EQ(ring.host_read(3, 10), 99u);
  EXPECT_EQ(ring.packets_lost(), 0u);
}

TEST(Fault, HealRestoresNormalLatency) {
  sim::Simulation sim;
  RingConfig cfg;
  cfg.nodes = 3;
  cfg.bank_words = 1024;
  Ring ring(sim, cfg);
  // Same-instant host writes arbitrate in one (node, kind)-ordered batch
  // (docs/simulator.md "Parallel execution"), so run the sim between the
  // two writes to give each its own link-state instant.
  ring.fail_link(0);
  ring.host_write(0, 5, 1);  // lost for everyone downstream of 0
  sim.run();
  ring.heal_link(0);
  ring.host_write(0, 6, 2);  // injected after heal: delivered normally
  sim.run();
  EXPECT_EQ(ring.host_read(1, 5), 0u);
  EXPECT_EQ(ring.host_read(2, 5), 0u);
  EXPECT_EQ(ring.host_read(1, 6), 2u);
  EXPECT_EQ(ring.host_read(2, 6), 2u);
}

TEST(Fault, BbpSurvivesFailureOnRedundantRing) {
  // A BBP exchange straddling a link failure completes once the backup
  // ring takes over, with only the switchover added to latency.
  sim::Simulation sim;
  RingConfig cfg;
  cfg.nodes = 2;
  cfg.bank_words = 4096;
  cfg.redundant_ring = true;
  cfg.switchover = us(80);
  Ring ring(sim, cfg);
  SimTime recv_done = 0;
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    bbp::Endpoint ep(port, 2, 0);
    p.delay(us(10));
    ring.fail_link(0);  // sever 0 -> 1 right before sending
    std::vector<u8> msg(32);
    fill_pattern(msg, 4);
    ASSERT_TRUE(ep.send(1, msg).ok());
    ep.drain();  // ACK comes back over the (unaffected) 1 -> 0 hop
  });
  sim.spawn("rx", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    bbp::Endpoint ep(port, 2, 1);
    std::vector<u8> buf(32);
    ASSERT_TRUE(ep.recv(0, buf).ok());
    EXPECT_TRUE(check_pattern(buf, 4));
    recv_done = p.now();
  });
  sim.run();
  // Delivery waited for the ~90us switchover window (10us + 80us) instead
  // of the usual ~7us.
  EXPECT_GT(to_us(recv_done), 85.0);
  EXPECT_LT(to_us(recv_done), 120.0);
}

TEST(Fault, BbpStallsForeverWithoutRedundancy) {
  // Without the backup ring, a severed link makes the receiver wait for a
  // message that can never arrive: the kernel must report the deadlock
  // (the receiver parks in interrupt mode with no pending events).
  sim::Simulation sim;
  RingConfig cfg;
  cfg.nodes = 2;
  cfg.bank_words = 4096;
  Ring ring(sim, cfg);
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    bbp::Endpoint ep(port, 2, 0);
    p.delay(us(5));
    ring.fail_link(0);
    std::vector<u8> msg(16);
    ASSERT_TRUE(ep.try_send(1, msg).ok());  // vanishes on the broken hop
  });
  sim.spawn("rx", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    bbp::Config c;
    c.recv_mode = bbp::RecvMode::kInterrupt;  // parks instead of spinning
    bbp::Endpoint ep(port, 2, 1, c);
    std::vector<u8> buf(16);
    (void)ep.recv(0, buf);  // never completes
  });
  EXPECT_THROW(sim.run(), sim::DeadlockError);
}

/// The text of the DeadlockError that `run()` throws ("" if none).
template <typename Run>
std::string livelock_report(Run run) {
  try {
    run();
  } catch (const sim::DeadlockError& e) {
    return e.what();
  }
  return "";
}

/// The virtual time a livelock report names, "simulation livelock at T us".
SimTime livelock_at(const std::string& report) {
  double t_us = -1;
  std::sscanf(report.c_str(), "simulation livelock at %lf us", &t_us);
  return static_cast<SimTime>(t_us * 1e6 + 0.5);
}

TEST(Fault, BbpPollingReceiverLivelocksWithoutRedundancy) {
  // BbpStallsForeverWithoutRedundancy with the receiver polling, as the
  // paper's BBP does: it spins on a flag word that no event can change any
  // more, and the kernel ends the run instead of letting it spin forever.
  sim::Simulation sim;
  RingConfig cfg;
  cfg.nodes = 2;
  cfg.bank_words = 4096;
  Ring ring(sim, cfg);
  SimTime last_write = 0;
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    bbp::Endpoint ep(port, 2, 0);
    p.delay(us(5));
    ring.fail_link(0);
    std::vector<u8> msg(16);
    ASSERT_TRUE(ep.try_send(1, msg).ok());  // vanishes on the broken hop
    last_write = p.now();
  });
  sim.spawn("rx", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    bbp::Endpoint ep(port, 2, 1);
    std::vector<u8> buf(16);
    (void)ep.recv(0, buf);  // never completes
    ADD_FAILURE() << "the message was lost";
  });
  EXPECT_EQ(livelock_report([&] { sim.run(); }),
            "simulation livelock at 9.300 us: 1 process(es) spinning on state that "
            "can no longer change: rx (bbp.recv)");
  // The last event is the lost flag write's injection, at last_write. rx
  // finishes the poll that straddled it, pauses, and fails one more.
  EXPECT_EQ(sim.now() - last_write, ns(1690));
  EXPECT_LE(sim.now() - last_write, 2 * HostTimings::pio_read + HostTimings::poll_gap);
}

TEST(Fault, BadIndexReturnsErrorStatus) {
  // The ring fault API reports a nonexistent link/node as an error Status,
  // never an assert or a silent no-op.
  sim::Simulation sim;
  RingConfig cfg;
  cfg.nodes = 4;
  cfg.bank_words = 256;
  Ring ring(sim, cfg);
  EXPECT_EQ(ring.fail_link(4).code(), StatusCode::kInvalidArg);
  EXPECT_EQ(ring.heal_link(99).code(), StatusCode::kInvalidArg);
  EXPECT_EQ(ring.set_node_speed_factor(4, 2.0).code(), StatusCode::kInvalidArg);
  EXPECT_EQ(ring.set_node_speed_factor(0, 0.0).code(), StatusCode::kInvalidArg);
  EXPECT_EQ(ring.set_node_speed_factor(0, -1.0).code(), StatusCode::kInvalidArg);
  EXPECT_FALSE(ring.link_failed(4));
  // The valid wrap link still works.
  EXPECT_TRUE(ring.fail_link(3).ok());
  EXPECT_TRUE(ring.link_failed(3));
  EXPECT_TRUE(ring.heal_link(3).ok());
  EXPECT_FALSE(ring.link_failed(3));
}

TEST(FaultPlan, ArmValidatesEveryTargetUpFront) {
  sim::Simulation sim;
  RingConfig cfg;
  cfg.nodes = 4;
  cfg.bank_words = 256;
  Ring ring(sim, cfg);
  netmodels::EthernetFabric fab(sim, 4);

  {  // nonexistent link
    fault::FaultPlan p;
    p.link_down(us(1), 7);
    EXPECT_EQ(p.arm(sim, &ring).code(), StatusCode::kInvalidArg);
  }
  {  // nonexistent dial target
    fault::FaultPlan p;
    p.slow_node(us(1), 9, 2.0);
    EXPECT_EQ(p.arm(sim, &ring).code(), StatusCode::kInvalidArg);
  }
  {  // non-positive NIC speed factor
    fault::FaultPlan p;
    p.nic_speed(us(1), 1, 0.0);
    EXPECT_EQ(p.arm(sim, &ring).code(), StatusCode::kInvalidArg);
  }
  {  // fabric fault with no fabric to install the hook on
    fault::FaultPlan p;
    p.partition(us(1), 0, 1);
    EXPECT_EQ(p.arm(sim, &ring).code(), StatusCode::kInvalidArg);
  }
  {  // ring fault with no ring
    fault::FaultPlan p;
    p.link_down(us(1), 1);
    EXPECT_EQ(p.arm(sim, nullptr, &fab).code(), StatusCode::kInvalidArg);
  }
  {  // non-positive host dial factor
    fault::FaultPlan p;
    p.host_congestion(us(1), 1, -1.0);
    EXPECT_EQ(p.arm(sim, &ring).code(), StatusCode::kInvalidArg);
  }
  {  // partition endpoints outside the fabric
    fault::FaultPlan p;
    p.partition(us(1), 4, fault::FaultPlan::kAnyNode);
    EXPECT_EQ(p.arm(sim, nullptr, &fab).code(), StatusCode::kInvalidArg);
    fault::FaultPlan q;
    q.partition(us(1), fault::FaultPlan::kAnyNode, 4);
    EXPECT_EQ(q.arm(sim, nullptr, &fab).code(), StatusCode::kInvalidArg);
  }
  {  // loss probability outside [0, 1]
    fault::FaultPlan p;
    p.frame_loss(us(1), us(2), 1.5, 7);
    EXPECT_EQ(p.arm(sim, nullptr, &fab).code(), StatusCode::kInvalidArg);
  }
  {  // empty loss window
    fault::FaultPlan p;
    p.frame_loss(us(2), us(2), 0.5, 7);
    EXPECT_EQ(p.arm(sim, nullptr, &fab).code(), StatusCode::kInvalidArg);
  }
  {  // negative congestion delay, then an empty congestion window
    fault::FaultPlan p;
    p.fabric_congestion(us(1), us(2), -us(1));
    EXPECT_EQ(p.arm(sim, nullptr, &fab).code(), StatusCode::kInvalidArg);
    fault::FaultPlan q;
    q.fabric_congestion(us(3), us(2), us(1));
    EXPECT_EQ(q.arm(sim, nullptr, &fab).code(), StatusCode::kInvalidArg);
  }
  {  // empty pause window
    fault::FaultPlan p;
    p.pause_node(2, us(5), us(5));
    EXPECT_EQ(p.arm(sim, &ring).code(), StatusCode::kInvalidArg);
  }
  {  // no topology at all
    fault::FaultPlan p;
    EXPECT_EQ(p.arm(sim, nullptr, nullptr).code(), StatusCode::kInvalidArg);
  }
  {  // arming twice is an error (posted events point at the plan)
    fault::FaultPlan p;
    p.link_down(us(1), 1);
    EXPECT_TRUE(p.arm(sim, &ring).ok());
    EXPECT_EQ(p.arm(sim, &ring).code(), StatusCode::kUnavailable);
  }
}

TEST(FaultPlan, EveryKindHasACounterName) {
  const std::pair<fault::FaultKind, std::string_view> names[] = {
      {fault::FaultKind::kLinkDown, "link_down"},
      {fault::FaultKind::kLinkUp, "link_up"},
      {fault::FaultKind::kNicSpeed, "nic_speed"},
      {fault::FaultKind::kHostIo, "host_io"},
      {fault::FaultKind::kHostCpu, "host_cpu"},
      {fault::FaultKind::kPause, "pause"},
      {fault::FaultKind::kCrash, "crash"},
      {fault::FaultKind::kPartition, "partition_drops"},
      {fault::FaultKind::kFrameLoss, "loss_drops"},
      {fault::FaultKind::kCongestion, "congested_frames"},
  };
  for (const auto& [kind, name] : names) EXPECT_EQ(fault::kind_name(kind), name);
  EXPECT_EQ(fault::kind_name(fault::FaultKind::kCount), "unknown");
}

TEST(FaultPlan, ArmHostsRejectsRingAndFabricKinds) {
  sim::Simulation sim;
  {
    fault::FaultPlan p;
    p.link_down(us(1), 0);
    EXPECT_EQ(p.arm_hosts(sim, 4).code(), StatusCode::kInvalidArg);
  }
  {
    fault::FaultPlan p;
    p.fabric_congestion(us(1), us(2), us(3));
    EXPECT_EQ(p.arm_hosts(sim, 4).code(), StatusCode::kInvalidArg);
  }
  {
    fault::FaultPlan p;
    p.slow_node(us(1), 1, 2.0);
    EXPECT_EQ(p.dials(1), nullptr);  // no dials before arming
    EXPECT_TRUE(p.arm_hosts(sim, 4).ok());
    EXPECT_NE(p.dials(1), nullptr);
    EXPECT_EQ(p.dials(4), nullptr);  // out of range stays null
  }
}

TEST(FaultPlan, FlappingLinkDropsOnlyDuringDownWindows) {
  sim::Simulation sim;
  RingConfig cfg;
  cfg.nodes = 4;
  cfg.bank_words = 1024;
  Ring ring(sim, cfg);
  fault::FaultPlan p;
  // Link 1 -> 2: down [10, 20)us, up [20, 30)us, down [30, 40)us, up after.
  p.flapping_link(1, us(10), us(10), us(10), 2);
  ASSERT_TRUE(p.arm(sim, &ring).ok());
  // One write from node 0 inside each window (link state is sampled at
  // packet injection).
  sim.post_at(us(5), [&] { ring.host_write(0, 0, 1); });
  sim.post_at(us(15), [&] { ring.host_write(0, 1, 2); });
  sim.post_at(us(25), [&] { ring.host_write(0, 2, 3); });
  sim.post_at(us(35), [&] { ring.host_write(0, 3, 4); });
  sim.post_at(us(45), [&] { ring.host_write(0, 4, 5); });
  sim.run();
  // Node 1 sits before the flapping link and sees everything.
  for (u32 a = 0; a < 5; ++a) EXPECT_EQ(ring.host_read(1, a), a + 1);
  // Nodes 2 and 3 lose exactly the writes injected during down windows.
  for (u32 n = 2; n < 4; ++n) {
    EXPECT_EQ(ring.host_read(n, 0), 1u);
    EXPECT_EQ(ring.host_read(n, 1), 0u);
    EXPECT_EQ(ring.host_read(n, 2), 3u);
    EXPECT_EQ(ring.host_read(n, 3), 0u);
    EXPECT_EQ(ring.host_read(n, 4), 5u);
  }
  EXPECT_EQ(ring.packets_lost(), 4u);  // 2 writes x 2 downstream nodes
  EXPECT_EQ(p.fired(fault::FaultKind::kLinkDown), 2u);
  EXPECT_EQ(p.fired(fault::FaultKind::kLinkUp), 2u);
}

TEST(FaultPlan, WrongSpeedNicStretchesSerialization) {
  // A degraded NIC (factor > 1) holds the insertion engine longer, so the
  // same write lands at the far node later than on a nominal ring.
  auto delivered_at = [](double factor) {
    sim::Simulation sim;
    RingConfig cfg;
    cfg.nodes = 4;
    cfg.bank_words = 1024;
    Ring ring(sim, cfg);
    fault::FaultPlan p;
    if (factor != 1.0) p.nic_speed(us(1), 0, factor);
    EXPECT_TRUE(p.arm(sim, &ring).ok());
    SimTime got = 0;
    ring.set_interrupt(3, 10, 11, [&](u32) { got = sim.now(); });
    sim.post_at(us(5), [&] {
      const u32 words[64] = {7};
      ring.host_write_block(0, 10, words, 0);
    });
    sim.run();
    EXPECT_GT(got, 0);
    return got;
  };
  const SimTime nominal = delivered_at(1.0);
  const SimTime slowed = delivered_at(8.0);
  EXPECT_GT(slowed, nominal);
  EXPECT_EQ(delivered_at(8.0), slowed);  // and it is deterministic
}

TEST(FaultPlan, SwitchoverIsCountedOnRedundantRing) {
  sim::Simulation sim;
  RingConfig cfg;
  cfg.nodes = 2;
  cfg.bank_words = 256;
  cfg.redundant_ring = true;
  cfg.switchover = us(50);
  Ring ring(sim, cfg);
  fault::FaultPlan p;
  p.link_down(us(5), 0);
  ASSERT_TRUE(p.arm(sim, &ring).ok());
  sim.post_at(us(10), [&] { ring.host_write(0, 10, 7); });
  sim.run();
  EXPECT_EQ(ring.switchovers(), 1u);
  EXPECT_EQ(ring.packets_lost(), 0u);
  EXPECT_EQ(ring.host_read(1, 10), 7u);  // delayed past switchover, not lost
  EXPECT_EQ(p.fired(fault::FaultKind::kLinkDown), 1u);
}

TEST(FaultPlan, PauseAndCrashQueriesArePure) {
  // Workload-level kinds are plain data: the queries answer without the
  // plan being armed and are pure functions of (node, virtual time).
  fault::FaultPlan p;
  p.pause_node(2, us(10), us(20)).crash_node(us(50), 3);
  EXPECT_TRUE(p.node_active(2, us(5)));
  EXPECT_FALSE(p.node_active(2, us(15)));
  EXPECT_EQ(p.paused_until(2, us(15)), us(20));
  EXPECT_TRUE(p.node_active(2, us(20)));  // window is half-open
  EXPECT_TRUE(p.node_active(3, us(49)));
  EXPECT_FALSE(p.node_active(3, us(50)));
  EXPECT_TRUE(p.crashed(3, us(60)));
  EXPECT_FALSE(p.crashed(2, us(60)));
}

TEST(FaultPlan, FrameLossIsSeededAndOrderIndependent) {
  // The drop verdict hashes (seed, src, dst, arrival): two runs of the
  // same traffic see bit-identical loss.
  auto run = [](u64 seed) {
    sim::Simulation sim;
    netmodels::EthernetFabric fab(sim, 2);
    fault::FaultPlan p;
    p.frame_loss(0, ms(10), 0.5, seed);
    EXPECT_TRUE(p.arm(sim, nullptr, &fab).ok());
    for (u32 i = 0; i < 40; ++i) {
      sim.post_at(us(20) * i, [&fab, i] {
        netmodels::Frame f;
        f.src = 0;
        f.dst = 1;
        f.payload.assign(64, static_cast<u8>(i));
        fab.transmit(std::move(f));
      });
    }
    sim.run();
    return std::pair<u64, u64>(fab.frames_dropped(), fab.frames_delivered());
  };
  const auto a = run(1);
  const auto b = run(1);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.first, 0u);   // some frames dropped...
  EXPECT_GT(a.second, 0u);  // ...and some survived, at prob 0.5 over 40
  EXPECT_EQ(a.first + a.second, 40u);
}

TEST(FaultPlan, SocketsApiPingPongArmsItsPlan) {
  // The Figure 2 sockets-API measurement arms its fault plan against its
  // fabric like every harness run: congestion on every frame in the
  // window stretches each one-way trip by the added delay.
  using harness::TcpFabricKind;
  const double clean = harness::tcp_api_oneway_us(TcpFabricKind::kFastEthernet, 64, 4, 1);
  fault::FaultPlan plan;
  plan.fabric_congestion(0, ms(10), us(5));
  const double slowed =
      harness::tcp_api_oneway_us(TcpFabricKind::kFastEthernet, 64, 4, 1, {}, &plan);
  EXPECT_GE(slowed, clean + 5.0);
  EXPECT_GT(plan.fired(fault::FaultKind::kCongestion), 0u);
}

TEST(FaultPlan, BbpTimesOutInsteadOfHanging) {
  // The BbpStallsForeverWithoutRedundancy scenario again, but with a
  // bounded wait configured: both sides come back with kTimedOut and the
  // simulation drains normally instead of throwing DeadlockError.
  sim::Simulation sim;
  RingConfig cfg;
  cfg.nodes = 2;
  cfg.bank_words = 4096;
  Ring ring(sim, cfg);
  Status drain_st, recv_st;
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    bbp::Config c;
    c.poll_timeout = us(500);
    bbp::Endpoint ep(port, 2, 0, c);
    p.delay(us(5));
    ASSERT_TRUE(ring.fail_link(0).ok());
    std::vector<u8> msg(16);
    ASSERT_TRUE(ep.try_send(1, msg).ok());  // vanishes on the broken hop
    drain_st = ep.drain();                  // ACK toggle never arrives
  });
  sim.spawn("rx", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    bbp::Config c;
    c.recv_mode = bbp::RecvMode::kInterrupt;  // would park forever...
    c.poll_timeout = us(500);                 // ...but the deadline polls
    bbp::Endpoint ep(port, 2, 1, c);
    std::vector<u8> buf(16);
    recv_st = ep.recv(0, buf).status();
  });
  sim.run();  // completes: no fiber is parked forever
  EXPECT_EQ(drain_st.code(), StatusCode::kTimedOut);
  EXPECT_EQ(recv_st.code(), StatusCode::kTimedOut);
  EXPECT_GE(ring.packets_lost(), 1u);
}

TEST(FaultPlan, BbpSendGivesUpOnBillboardSpaceAtPollTimeout) {
  // Link 0 is down from t = 0, so the one slot's MESSAGE toggle never
  // reaches node 1 and no ACK frees the slot: the second send stalls for
  // billboard space once and gives up at poll_timeout.
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 4096});
  ASSERT_TRUE(ring.fail_link(0).ok());
  Status st;
  bbp::EndpointStats stats;
  SimTime entered = 0, gave_up = 0;
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    bbp::Config c;
    c.slots = 1;
    c.poll_timeout = us(200);
    bbp::Endpoint ep(port, 2, 0, c);
    std::vector<u8> msg(16, 7);
    ASSERT_TRUE(ep.send(1, msg).ok());  // vanishes on the broken hop
    entered = p.now();
    st = ep.send(1, msg);
    gave_up = p.now();
    stats = ep.stats();
  });
  sim.run();
  EXPECT_EQ(st.code(), StatusCode::kTimedOut);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.send_stalls, 1u);
  EXPECT_GE(ring.packets_lost(), 1u);
  EXPECT_GE(gave_up - entered, us(200));
  EXPECT_EQ(gave_up, ns(203550));  // the first failed pass at or past the deadline
}

TEST(FaultPlan, BbpRecvAnyGivesUpAtPollTimeout) {
  // Node 0's message is lost on link 0 (down from t = 0): node 1's
  // recv_any polls every sender until poll_timeout and gives up.
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 4096});
  ASSERT_TRUE(ring.fail_link(0).ok());
  Status st;
  u64 timeouts = 0;
  SimTime gave_up = 0;
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    bbp::Endpoint ep(port, 2, 0);
    std::vector<u8> msg(16, 7);
    ASSERT_TRUE(ep.send(1, msg).ok());  // vanishes on the broken hop
  });
  sim.spawn("rx", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    bbp::Config c;
    c.poll_timeout = us(200);
    bbp::Endpoint ep(port, 2, 1, c);
    std::vector<u8> buf(16);
    st = ep.recv_any(buf).status();
    gave_up = p.now();
    timeouts = ep.stats().timeouts;
  });
  sim.run();
  EXPECT_EQ(st.code(), StatusCode::kTimedOut);
  EXPECT_EQ(timeouts, 1u);
  EXPECT_GE(ring.packets_lost(), 1u);
  EXPECT_EQ(gave_up, ns(201300));
}

TEST(FaultPlan, ProbeGivesUpAtOpTimeoutWhenMessageIsLost) {
  // Rank 0's message is lost on link 0 (down from t = 0): rank 1's probe
  // drains an empty device until op_timeout and returns kTimedOut.
  fault::FaultPlan plan;
  plan.link_down(0, 0);
  harness::ScramnetOptions opts;
  opts.faults = &plan;
  opts.mpi.op_timeout = ms(1);
  scrmpi::MpiStatus st;
  u64 timeouts = 0;
  SimTime entered = 0, gave_up = 0;
  harness::run_scramnet_mpi(
      2,
      [&](sim::Process& p, scrmpi::Mpi& mpi) {
        const scrmpi::Comm& w = mpi.world();
        std::vector<u8> msg(16, 7);
        if (mpi.rank(w) == 0) {
          mpi.send(msg.data(), 16, scrmpi::Datatype::kByte, 1, 0, w);
          return;
        }
        entered = p.now();
        st = mpi.probe(0, 0, w);
        gave_up = p.now();
        timeouts = mpi.engine().op_timeouts();
      },
      opts);
  EXPECT_EQ(st.err, StatusCode::kTimedOut);
  EXPECT_EQ(timeouts, 1u);
  EXPECT_GE(gave_up - entered, ms(1));
  EXPECT_EQ(gave_up, ns(1000100));
}

TEST(FaultPlan, HierarchyNodesHonorHostDials) {
  // Host-level faults apply to the two-level ring hierarchy through the
  // same PortDials mechanism as the flat ring (arm_hosts + set_dials).
  auto finish_time = [](bool degraded) {
    sim::Simulation sim;
    HierarchyConfig hc;
    hc.leaf_rings = 2;
    hc.leaf.nodes = 2;
    hc.leaf.bank_words = 4096;
    RingHierarchy h(sim, hc);
    fault::FaultPlan p;
    if (degraded) p.host_congestion(0, 1, 4.0).slow_node(0, 1, 4.0);
    EXPECT_TRUE(p.arm_hosts(sim, h.nodes()).ok());
    SimTime done = 0;
    sim.spawn("writer", [&](sim::Process& pr) {
      SimHostPort port(h, 1, pr);
      port.set_dials(p.dials(1));
      pr.delay(us(1));  // let the dial events at t=0 take effect
      for (u32 i = 0; i < 16; ++i) {
        port.write_u32(100 + i, i + 1);
        port.cpu_delay(HostTimings::poll_gap);
      }
      done = pr.now();
    });
    sim.run();
    // The writes crossed the bridge onto the other leaf ring.
    EXPECT_EQ(h.host_read(3, 100), 1u);
    EXPECT_GT(h.backbone().packets_sent(), 0u);
    return done;
  };
  const SimTime nominal = finish_time(false);
  const SimTime degraded = finish_time(true);
  EXPECT_GT(degraded, nominal);
  EXPECT_EQ(finish_time(true), degraded);  // deterministic
}

TEST(FaultPlan, HostIoDialStretchesDialedRank) {
  // A host-I/O dial on the last node of an 8-node cluster takes effect once,
  // mid-run, and stretches that rank's bus transactions from then on: the
  // dialed sender finishes later than the same run without the plan.
  constexpr u32 kNodes = 8;
  auto finish_times = [](fault::FaultPlan* plan) {
    harness::ScramnetOptions opts;
    opts.faults = plan;
    std::vector<SimTime> done(kNodes, 0);
    harness::run_scramnet_bbp(
        kNodes,
        [&](sim::Process& p, bbp::Endpoint& ep) {
          const u32 me = ep.rank();
          std::vector<u8> msg(64, 7), buf(64);
          if (me == kNodes - 1) {
            for (int i = 0; i < 30; ++i) ASSERT_TRUE(ep.send(0, msg).ok());
          } else if (me == 0) {
            for (int i = 0; i < 30; ++i) ASSERT_TRUE(ep.recv(kNodes - 1, buf).ok());
          }
          done[me] = p.now();
        },
        opts);
    return done;
  };
  const std::vector<SimTime> nominal = finish_times(nullptr);
  fault::FaultPlan plan;
  plan.host_congestion(us(30), kNodes - 1, 4.0);
  const std::vector<SimTime> dialed = finish_times(&plan);
  EXPECT_EQ(plan.fired(fault::FaultKind::kHostIo), 1u);
  EXPECT_GT(nominal[kNodes - 1], us(30));  // the flip lands mid-run
  EXPECT_GT(dialed[kNodes - 1], nominal[kNodes - 1]);
}

/// Run `body` on every rank of a 4-node MPI cluster whose link 0 (node 0 ->
/// node 1) is down from t = 0, with op_timeout and the BBP poll_timeout
/// both 1 ms, and return each rank's op_timeouts(). Nothing node 0 writes
/// reaches anyone, and node 1 hears nobody.
std::vector<u64> op_timeouts_with_link0_down(
    const std::function<void(scrmpi::Mpi&)>& body) {
  fault::FaultPlan plan;
  plan.link_down(0, 0);
  harness::ScramnetOptions opts;
  opts.faults = &plan;
  opts.mpi.op_timeout = ms(1);
  opts.bbp.poll_timeout = ms(1);
  std::vector<u64> timeouts(4, 0);
  harness::run_scramnet_mpi(
      4,
      [&](sim::Process&, scrmpi::Mpi& mpi) {
        body(mpi);
        timeouts[static_cast<usize>(mpi.rank(mpi.world()))] =
            mpi.engine().op_timeouts();
      },
      opts);
  return timeouts;
}

TEST(FaultPlan, NativeMcastBcastTimesOutWhenRootIsCutOff) {
  // The root's multicast never arrives: every receiver gives up at
  // op_timeout and returns, instead of waiting for data forever.
  const std::vector<u64> t = op_timeouts_with_link0_down([](scrmpi::Mpi& mpi) {
    mpi.set_bcast_algo(scrmpi::CollAlgo::kNativeMcast);
    std::vector<u8> buf(64, 1);
    mpi.bcast(buf.data(), 64, scrmpi::Datatype::kByte, 0, mpi.world());
  });
  for (u32 r = 1; r < 4; ++r) EXPECT_GE(t[r], 1u) << "rank " << r;
}

TEST(FaultPlan, LateNativeBcastChunkIsNotTakenByTheNextBcast) {
  // The root starts late: rank 1's first bcast times out with nothing, and
  // the root's bcast(A) arrives while rank 1 waits in its second bcast.
  // That bcast must drop A's chunk as stale and return B.
  harness::ScramnetOptions opts;
  opts.mpi.op_timeout = ms(1);
  std::vector<u8> first(8, 0), second(8, 0);
  u64 timeouts = 0, stale = 0;
  harness::run_scramnet_mpi(
      2,
      [&](sim::Process& p, scrmpi::Mpi& mpi) {
        mpi.set_bcast_algo(scrmpi::CollAlgo::kNativeMcast);
        const scrmpi::Comm& w = mpi.world();
        if (mpi.rank(w) == 0) {
          p.delay(us(1500));  // after rank 1's first timeout, before its second
          std::vector<u8> a(8, 0xA), b(8, 0xB);
          mpi.bcast(a.data(), 8, scrmpi::Datatype::kByte, 0, w);
          mpi.bcast(b.data(), 8, scrmpi::Datatype::kByte, 0, w);
        } else {
          mpi.bcast(first.data(), 8, scrmpi::Datatype::kByte, 0, w);
          mpi.bcast(second.data(), 8, scrmpi::Datatype::kByte, 0, w);
          timeouts = mpi.engine().op_timeouts();
          stale = mpi.engine().stale_packets();
        }
      },
      opts);
  EXPECT_EQ(first, std::vector<u8>(8, 0));
  EXPECT_EQ(second, std::vector<u8>(8, 0xB));
  EXPECT_EQ(timeouts, 1u);
  EXPECT_EQ(stale, 1u);
}

TEST(FaultPlan, NativeMcastBarrierTimesOutWhenReleaseIsLost) {
  // Rank 0 collects every arrival, but its release multicast is lost: the
  // three waiting ranks give up at op_timeout.
  const std::vector<u64> t = op_timeouts_with_link0_down([](scrmpi::Mpi& mpi) {
    mpi.set_barrier_algo(scrmpi::CollAlgo::kNativeMcast);
    mpi.barrier(mpi.world());
  });
  for (u32 r = 1; r < 4; ++r) EXPECT_GE(t[r], 1u) << "rank " << r;
}

/// Rank 0 sends 16 bytes to rank 1 on `device`, but the message is lost
/// (a ring link or a partition, down from t = 0) and rank 1 waits for it
/// with op_timeout 0, the paper's blocking semantics. Returns the text of
/// the DeadlockError that ends the run, and in `sent` the time rank 0's
/// send returned: the last event before rank 1 spins alone.
std::string lost_message_report(const std::string& device, SimTime* sent) {
  fault::FaultPlan plan;
  const auto body = [&](sim::Process& p, scrmpi::Mpi& mpi) {
    const scrmpi::Comm& w = mpi.world();
    std::vector<u8> buf(16, 7);
    if (mpi.rank(w) == 0) {
      mpi.send(buf.data(), 16, scrmpi::Datatype::kByte, 1, 0, w);
      *sent = p.now();
    } else {
      mpi.recv(buf.data(), 16, scrmpi::Datatype::kByte, 0, 0, w);
      ADD_FAILURE() << device << ": the message was lost";
    }
  };
  harness::ScramnetOptions sopts;
  harness::FabricOptions fopts;
  sopts.faults = fopts.faults = &plan;
  if (device == "bbp" || device == "hybrid")
    plan.link_down(0, 0);
  else
    plan.partition(0, 0, fault::FaultPlan::kAnyNode);
  return livelock_report([&] {
    if (device == "bbp") harness::run_scramnet_mpi(2, body, sopts);
    if (device == "sock")
      harness::run_tcp_mpi(2, harness::TcpFabricKind::kFastEthernet, body, fopts);
    if (device == "rdma") harness::run_rdma_mpi(2, body, fopts);
    if (device == "hybrid")
      harness::run_hybrid_mpi(2, harness::TcpFabricKind::kMyrinet, 1024, body, sopts);
  });
}

TEST(FaultPlan, LostMessageWithoutOpTimeoutLivelocksOnEveryDevice) {
  // Each device's receiver spins in the ADI's wait until the kernel sees
  // that nothing can reach it any more, one full poll after the last event.
  struct Case {
    const char* device;
    const char* rank;
    SimTime delay;  // from the last event to the end of the run
  };
  for (const Case& c : {Case{"bbp", "mpi-rank1", ns(2770)},
                        Case{"sock", "mpi-FastEthernet-rank1", ns(80)},
                        Case{"rdma", "rdma-rank1", ns(440)},
                        Case{"hybrid", "hybrid-rank1", ns(2290)}}) {
    SCOPED_TRACE(c.device);
    SimTime sent = 0;
    const std::string report = lost_message_report(c.device, &sent);
    EXPECT_EQ(report.substr(report.find(':')),
              std::string(": 1 process(es) spinning on state that can no longer "
                          "change: ") +
                  c.rank + " (adi.wait)");
    EXPECT_EQ(livelock_at(report) - sent, c.delay) << report;
  }
}

TEST(FaultPlan, AdiPassStalledInABbpSendIsReportedAtTheSend) {
  // Link 1 (node 1 -> node 0) is down from t = 0, and each rank has one
  // billboard slot. Rank 1's eager send never reaches rank 0, so its slot
  // is never acknowledged. Rank 0 then starts a rendezvous: rank 1's wait
  // handles the RTS and answers with a CTS, whose send stalls for the slot
  // inside the wait's pass. The report names the innermost spin there.
  fault::FaultPlan plan;
  plan.link_down(0, 1);
  harness::ScramnetOptions opts;
  opts.faults = &plan;
  opts.bbp.slots = 1;
  opts.mpi.eager_cap = 64;
  const std::string report = livelock_report([&] {
    harness::run_scramnet_mpi(
        2,
        [&](sim::Process&, scrmpi::Mpi& mpi) {
          const scrmpi::Comm& w = mpi.world();
          std::vector<u8> small(16, 1), big(256, 2);
          if (mpi.rank(w) == 1) {
            mpi.send(small.data(), 16, scrmpi::Datatype::kByte, 0, 0, w);
            mpi.recv(big.data(), 256, scrmpi::Datatype::kByte, 0, 1, w);
          } else {
            mpi.send(big.data(), 256, scrmpi::Datatype::kByte, 1, 1, w);
          }
          ADD_FAILURE() << "rank " << mpi.rank(w) << " finished";
        },
        opts);
  });
  EXPECT_EQ(report.substr(report.find(':')),
            ": 2 process(es) spinning on state that can no longer change: "
            "mpi-rank0 (adi.wait), mpi-rank1 (bbp.send)");
}

TEST(FaultPlan, WaitanyTimesOutWhenMessageIsLost) {
  // Rank 1 waits on a receive whose message rank 0 sent into the broken
  // link: waitany returns no index and kTimedOut, the request still valid.
  scrmpi::MpiStatus st;
  usize idx = 0;
  bool still_valid = false;
  const std::vector<u64> t = op_timeouts_with_link0_down([&](scrmpi::Mpi& mpi) {
    const scrmpi::Comm& w = mpi.world();
    std::vector<u8> msg(16, 7), buf(16);
    if (mpi.rank(w) == 0) {
      mpi.send(msg.data(), 16, scrmpi::Datatype::kByte, 1, 0, w);
    } else if (mpi.rank(w) == 1) {
      scrmpi::Request rs[1] = {
          mpi.irecv(buf.data(), 16, scrmpi::Datatype::kByte, 0, 0, w)};
      std::tie(idx, st) = mpi.waitany(rs, w);
      still_valid = rs[0].valid();
    }
  });
  EXPECT_EQ(idx, 1u);
  EXPECT_EQ(st.err, StatusCode::kTimedOut);
  EXPECT_TRUE(still_valid);
  EXPECT_GE(t[1], 1u);
}

/// Rank 0 sends `msgs` numbered messages of `bytes` to rank 1, which
/// records the numbers it receives; op_timeout and poll_timeout are 400 us.
struct NumberedStream {
  std::vector<u32> got;
  u64 op_timeouts = 0;
  u64 malformed = 0;
  u64 stale_descs = 0;
};

std::function<void(sim::Process&, scrmpi::Mpi&)> numbered_stream(
    NumberedStream& out, u32 msgs, u32 bytes) {
  return [&out, msgs, bytes](sim::Process&, scrmpi::Mpi& mpi) {
    const scrmpi::Comm& w = mpi.world();
    std::vector<u8> buf(bytes, 0);
    if (mpi.rank(w) == 0) {
      for (u32 k = 1; k <= msgs; ++k) {
        std::memcpy(buf.data(), &k, 4);
        mpi.send(buf.data(), bytes, scrmpi::Datatype::kByte, 1, 0, w);
      }
    } else if (mpi.rank(w) == 1) {
      for (u32 k = 1; k <= msgs; ++k) {
        if (!mpi.recv(buf.data(), bytes, scrmpi::Datatype::kByte, 0, 0, w).ok()) continue;
        u32 n = 0;
        std::memcpy(&n, buf.data(), 4);
        out.got.push_back(n);
      }
      out.op_timeouts = mpi.engine().op_timeouts();
      out.malformed = mpi.engine().malformed_packets();
      if (mpi.engine().device().kind() == "bbp")
        out.stale_descs = static_cast<scrmpi::BbpChannel&>(mpi.engine().device())
                              .endpoint()
                              .stats()
                              .stale_descs;
    }
  };
}

harness::ScramnetOptions stream_options(fault::FaultPlan& plan) {
  harness::ScramnetOptions opts;
  opts.bbp.poll_timeout = us(400);
  opts.mpi.op_timeout = us(400);
  opts.faults = &plan;
  return opts;
}

TEST(FaultPlan, LostDescriptorWriteIsNotReplayedAsAnOlderMessage) {
  // Link 0 goes down for 1 us just as message 33's descriptor crosses it
  // and heals before its MESSAGE toggle does. The toggled slot still holds
  // message 1's descriptor: it must be dropped as stale (counted and
  // ACKed), not delivered as message 1 again. Message 33 is lost and its
  // receive times out; every other message arrives once, in order.
  fault::FaultPlan plan;
  const SimTime down = us(200) + ns(170) * 4075;
  plan.link_down(down, 0);
  plan.link_up(down + us(1), 0);
  harness::ScramnetOptions opts = stream_options(plan);
  opts.ring.bank_words = 4096;
  NumberedStream s;
  harness::run_scramnet_mpi(4, numbered_stream(s, 90, 64), opts);
  std::vector<u32> want;
  for (u32 k = 1; k <= 90; ++k)
    if (k != 33) want.push_back(k);
  EXPECT_EQ(s.got, want);
  EXPECT_EQ(s.stale_descs, 1u);
  EXPECT_EQ(s.op_timeouts, 1u);
  EXPECT_EQ(s.malformed, 0u);
}

TEST(FaultPlan, LostDescriptorWriteIsNotDeliveredByABbpReceive) {
  // The BBP-level twin of the test above, through Endpoint::recv and
  // recv_any. The sender paces its messages 10 us apart, so the receiver
  // waits with an empty queue when message 13's MESSAGE toggle arrives
  // without its descriptor (link 0 down for 1 us). The stale toggle
  // queues nothing, so the receive must keep waiting, not deliver from an
  // empty queue; message 13 is lost and the 90th receive times out.
  for (const bool any : {false, true}) {
    fault::FaultPlan plan;
    const SimTime down = us(199) + ns(840);
    plan.link_down(down, 0);
    plan.link_up(down + us(1), 0);
    harness::ScramnetOptions opts = stream_options(plan);
    opts.ring.bank_words = 4096;
    std::vector<u32> got;
    u64 stale = 0, timeouts = 0;
    harness::run_scramnet_bbp(
        4,
        [&](sim::Process& p, bbp::Endpoint& ep) {
          std::vector<u8> buf(64, 0);
          if (ep.rank() == 0) {
            for (u32 k = 1; k <= 90; ++k) {
              p.delay(us(10));
              std::memcpy(buf.data(), &k, 4);
              EXPECT_TRUE(ep.send(1, buf).ok());
            }
          } else if (ep.rank() == 1) {
            for (u32 k = 1; k <= 90; ++k) {
              const auto r = any ? ep.recv_any(buf) : ep.recv(0, buf);
              if (!r.ok()) continue;
              u32 n = 0;
              std::memcpy(&n, buf.data(), 4);
              got.push_back(n);
            }
            stale = ep.stats().stale_descs;
            timeouts = ep.stats().timeouts;
          }
        },
        opts);
    std::vector<u32> want;
    for (u32 k = 1; k <= 90; ++k)
      if (k != 13) want.push_back(k);
    const char* via = any ? "recv_any" : "recv";
    EXPECT_EQ(got, want) << via;
    EXPECT_EQ(stale, 1u) << via;
    EXPECT_EQ(timeouts, 1u) << via;
  }
}

TEST(FaultPlan, FlappingLinkTornFramesAreCountedAsMalformed) {
  // Short flaps of link 0 tear BBP messages in flight: the receiver reads
  // a frame with missing or stale words. MPI over ch_bbp, alone or as
  // ch_hybrid's low leg, counts it in malformed_packets() and drops it;
  // on ch_bbp each torn message's receive times out.
  auto stream = [](bool hybrid) {
    fault::FaultPlan plan;
    plan.flapping_link(0, us(100), us(3), us(20), 10);
    NumberedStream s;
    if (hybrid)
      harness::run_hybrid_mpi(4, harness::TcpFabricKind::kMyrinet, 1024,
                              numbered_stream(s, 60, 256), stream_options(plan));
    else
      harness::run_scramnet_mpi(4, numbered_stream(s, 60, 256), stream_options(plan));
    return s;
  };
  const NumberedStream bbp = stream(false);
  EXPECT_EQ(bbp.malformed, 2u);
  EXPECT_EQ(bbp.op_timeouts, bbp.malformed);
  EXPECT_EQ(bbp.got.size(), 58u);
  const NumberedStream hybrid = stream(true);
  EXPECT_EQ(hybrid.malformed, 1u);
  EXPECT_GE(hybrid.op_timeouts, 1u);
}

}  // namespace
}  // namespace scrnet::scramnet
