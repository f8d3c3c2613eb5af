// Workload-generator tests: fault-scenario determinism across sweep job
// counts, degraded-mode termination (timeouts, never hangs) on all three
// channel devices, workload-level pause/crash faults, and startup
// rejection of invalid fault plans.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/runner.h"
#include "workload/workload.h"

namespace scrnet::workload {
namespace {

// Small but representative scenario set: every device, a ring break, a
// fail-stop partition, and a clean hot-spot. Kept small (4 nodes, 8 ops)
// so the determinism matrix stays fast.
std::vector<Spec> scenarios() {
  std::vector<Spec> specs;
  {
    Spec s;
    s.name = "t_break_bbp";
    s.pattern = Pattern::kIncast;
    s.device = Device::kBbp;
    s.nodes = 4;
    s.ops = 8;
    s.bbp_slots = 8;
    s.op_timeout = ms(2);
    s.faults.link_down(us(100), 3);
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "t_part_sock";
    s.pattern = Pattern::kIncast;
    s.device = Device::kSock;
    s.fabric = harness::TcpFabricKind::kFastEthernet;
    s.nodes = 4;
    s.ops = 8;
    s.op_timeout = ms(2);
    s.faults.partition(us(400), fault::FaultPlan::kAnyNode, 0);
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "t_hot_hybrid";
    s.pattern = Pattern::kHotspot;
    s.device = Device::kHybrid;
    s.nodes = 4;
    s.ops = 8;
    s.op_timeout = ms(20);
    specs.push_back(s);
  }
  return specs;
}

std::vector<std::string> render_all(u32 jobs) {
  const std::vector<Spec> specs = scenarios();
  sweep::Runner runner(jobs);
  const std::vector<Report> reports =
      runner.map("wl", specs, [](const Spec& s) { return run(s); });
  std::vector<std::string> out;
  out.reserve(specs.size());
  for (usize i = 0; i < specs.size(); ++i)
    out.push_back(reports[i].render(specs[i]));
  return out;
}

TEST(Workload, PatternAndDeviceNamesFallBackForUnknownValues) {
  EXPECT_EQ(to_string(Pattern::kAllToAll), "alltoall");
  EXPECT_EQ(to_string(static_cast<Pattern>(99)), "?");
  EXPECT_EQ(to_string(Device::kHybrid), "hybrid");
  EXPECT_EQ(to_string(static_cast<Device>(99)), "?");
}

TEST(Workload, ReportsAreByteIdenticalAcrossJobCounts) {
  // Same seed, --jobs 1 vs 2 vs 8: the rendered p50/p99/p999 reports must
  // match byte for byte (each run owns a private simulation; nothing may
  // leak across jobs or depend on worker scheduling).
  const std::vector<std::string> j1 = render_all(1);
  const std::vector<std::string> j2 = render_all(2);
  const std::vector<std::string> j8 = render_all(8);
  EXPECT_EQ(j1, j2);
  EXPECT_EQ(j1, j8);
}

TEST(Workload, LossyIncastCompletesOnEveryDevice) {
  // An 8-node incast into rank 0 with the link into the sink severed:
  // the run must terminate on all three devices, surfacing kTimedOut
  // where delivery is impossible, instead of hanging a fiber.
  auto lossy = [](Device d) {
    Spec s;
    s.name = "t_lossy";
    s.pattern = Pattern::kIncast;
    s.device = d;
    s.nodes = 8;
    s.ops = 12;
    s.bbp_slots = 8;
    s.op_timeout = ms(2);
    if (d == Device::kSock) {
      // Transient ring-style loss would desync the TCP stream framing, so
      // the socket path models link loss as a fail-stop partition of the
      // sink (docs/faults.md).
      s.fabric = harness::TcpFabricKind::kFastEthernet;
      s.faults.partition(us(150), fault::FaultPlan::kAnyNode, 0);
    } else {
      s.faults.link_down(us(150), 7);
    }
    return run(s);
  };
  for (Device d : {Device::kBbp, Device::kSock, Device::kHybrid}) {
    const Report r = lossy(d);  // returning at all proves no hang
    EXPECT_GT(r.ops_timeout, 0u) << to_string(d);
    EXPECT_LT(r.ops_ok, u64{7} * 12) << to_string(d);
    EXPECT_GT(r.makespan, 0) << to_string(d);
  }
}

TEST(Workload, FlappingLinkTearsMessagesIntoTimeoutsNotThrows) {
  // A ring link that heals mid-message delivers only part of a BBP
  // message's words: the receiver sees a torn or runt frame. MPI over
  // ch_bbp (alone or as hybrid's low leg) must count and drop it, so the
  // operation times out instead of the rank throwing.
  auto flapping = [](Pattern p, Device d) {
    Spec s;
    s.name = "t_flap";
    s.pattern = p;
    s.device = d;
    s.nodes = 8;
    s.op_timeout = ms(2);
    s.faults.flapping_link(3, us(300), us(200), us(200), 4);
    return run(s);
  };
  for (const auto& [p, d] : {std::pair{Pattern::kHotspot, Device::kBbp},
                             std::pair{Pattern::kRpc, Device::kHybrid},
                             std::pair{Pattern::kRpc, Device::kBbp},
                             std::pair{Pattern::kHotspot, Device::kHybrid}}) {
    const Report r = flapping(p, d);
    EXPECT_GT(r.ops_timeout, 0u) << to_string(p) << "/" << to_string(d);
  }
}

TEST(Workload, RetriesAreCountedAndBounded) {
  Spec s;
  s.name = "t_retry";
  s.pattern = Pattern::kIncast;
  s.device = Device::kBbp;
  // ops > slots so senders exhaust their billboards once ACKs stop
  // flowing back over the broken link, forcing send-side timeouts.
  s.nodes = 4;
  s.ops = 12;
  s.bbp_slots = 4;
  s.op_timeout = ms(2);
  s.retries = 2;
  s.faults.link_down(us(50), 3);
  const Report r = run(s);
  EXPECT_GT(r.retried, 0u);
  // Every retry follows a failed send; retries never exceed the budget.
  EXPECT_LE(r.retried, (r.ops_timeout + r.ops_error) * 2);
}

TEST(Workload, RpcClientRetriesASendStalledForBillboardSpace) {
  // Link 0 (node 0 -> 1) is down from the start: client 0's request and
  // server 3's ACK to client 1 are lost, so neither client's first request
  // is ever ACKed. With one slot each client's next request stalls for
  // space until the timeout, is retried once, and the client gives up
  // after two failed calls in a row.
  Spec s;
  s.name = "t_rpc_retry";
  s.pattern = Pattern::kRpc;
  s.device = Device::kBbp;
  s.nodes = 4;
  s.ops = 6;
  s.bbp_slots = 1;
  s.op_timeout = us(500);
  s.retries = 1;
  s.faults.link_down(0, 0);
  const Report r = run(s);
  EXPECT_EQ(r.retried, 2u);
  EXPECT_EQ(r.ops_ok, 0u);
  EXPECT_GT(r.aborted, 0u);
}

TEST(Workload, RpcCrashedClientAndServerAbandonTheirRemainingCalls) {
  Spec s;
  s.name = "t_rpc_crash";
  s.pattern = Pattern::kRpc;
  s.device = Device::kBbp;
  s.nodes = 4;
  s.ops = 6;
  s.op_timeout = us(500);
  s.faults.crash_node(us(150), 0);  // client 0
  s.faults.crash_node(us(150), 3);  // client 1's server
  const Report r = run(s);
  EXPECT_GT(r.aborted, 0u);
  EXPECT_LT(r.ops_ok, u64{2} * 6);
  EXPECT_EQ(r.fault_fired[static_cast<u32>(fault::FaultKind::kCrash)], 2u);
}

TEST(Workload, PausedNodeCatchesUpCrashedNodeDoesNot) {
  Spec base;
  base.pattern = Pattern::kIncast;
  base.device = Device::kBbp;
  base.nodes = 4;
  base.ops = 6;
  base.op_timeout = ms(50);

  Spec paused = base;
  paused.name = "t_pause";
  paused.faults.pause_node(1, 0, us(300));
  const Report rp = run(paused);
  // The pause delays rank 1 but every op still completes.
  EXPECT_EQ(rp.ops_ok, u64{3} * 6);
  EXPECT_EQ(rp.ops_timeout, 0u);
  EXPECT_EQ(rp.fault_fired[static_cast<u32>(fault::FaultKind::kPause)], 1u);

  Spec crashed = base;
  crashed.name = "t_crash";
  crashed.op_timeout = ms(1);
  crashed.faults.crash_node(0, 1);
  const Report rc = run(crashed);
  // Rank 1 never issues an op; the sink times out waiting for its share.
  EXPECT_EQ(rc.node_ops[1], 0u);
  EXPECT_EQ(rc.ops_ok, u64{2} * 6);
  EXPECT_GT(rc.ops_timeout, 0u);
}

TEST(Workload, InvalidFaultTargetFailsAtStartup) {
  // A plan naming a nonexistent node is a caller error surfaced before
  // any traffic runs (FaultPlan::arm returns kInvalidArg; the harness
  // converts a failed arm into std::invalid_argument).
  Spec s;
  s.name = "t_bad_plan";
  s.pattern = Pattern::kIncast;
  s.device = Device::kBbp;
  s.nodes = 4;
  s.faults.link_down(us(1), 99);
  EXPECT_THROW(run(s), std::invalid_argument);
}

TEST(Workload, CleanRunHasNoDegradedCounts) {
  Spec s;
  s.name = "t_clean";
  s.pattern = Pattern::kAllToAll;
  s.device = Device::kBbp;
  s.nodes = 4;
  s.ops = 8;
  s.op_timeout = ms(50);
  const Report r = run(s);
  EXPECT_EQ(r.ops_ok, u64{4} * 8);
  EXPECT_EQ(r.ops_timeout, 0u);
  EXPECT_EQ(r.ops_error, 0u);
  EXPECT_EQ(r.retried, 0u);
  EXPECT_EQ(r.aborted, 0u);
  EXPECT_EQ(r.latency.count(), u64{4} * 8);
  EXPECT_GT(r.latency.percentile_permille(500), 0u);
  EXPECT_GE(r.latency.max(), r.latency.percentile_permille(999));
}

}  // namespace
}  // namespace scrnet::workload
