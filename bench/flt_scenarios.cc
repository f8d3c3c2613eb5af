// Fault-scenario suite: deterministic fault injection against the
// workload generator, reporting degraded-mode behavior and tail latency
// (p50/p99/p999) per scenario.
//
// Each scenario is one workload::Spec with an armed fault::FaultPlan: a
// broken ring link under an incast (on all three channel devices -- BBP,
// sockets, hybrid), a slowed RPC server, a congested fabric under a
// hot-spot, host-port congestion under an all-to-all, and a redundant-ring
// switchover. Every report is a pure function of its spec: the output is
// byte-identical at any --jobs value and is diffed against
// bench/golden/flt_scenarios.txt by repro_all.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "sweep/runner.h"
#include "workload/workload.h"

using namespace scrnet;

namespace {

using fault::FaultKind;
using workload::Device;
using workload::Pattern;
using workload::Spec;

constexpr u32 kN = 8;

u64 fired(const workload::Report& r, FaultKind k) {
  return r.fault_fired[static_cast<u32>(k)];
}

std::vector<Spec> catalog() {
  std::vector<Spec> specs;

  {  // Baseline: the incast with timeouts armed but nothing injected.
    Spec s;
    s.name = "clean_incast_bbp";
    s.pattern = Pattern::kIncast;
    s.device = Device::kBbp;
    s.nodes = kN;
    s.op_timeout = ms(50);
    specs.push_back(s);
  }
  {  // Permanent early break of the link into rank 0: senders exhaust
     // their 8 billboards (ACKs stop) and time out; rank 0's receives
     // time out. Both sides return kTimedOut instead of hanging.
    Spec s;
    s.name = "break_incast_bbp";
    s.pattern = Pattern::kIncast;
    s.device = Device::kBbp;
    s.nodes = kN;
    s.bbp_slots = 8;
    s.op_timeout = ms(2);
    s.faults.link_down(us(150), kN - 1);
    specs.push_back(s);
  }
  {  // Fail-stop partition of the sink on the TCP path: sends still buffer
     // (the stack never blocks), so only the receiver observes timeouts.
    Spec s;
    s.name = "part_incast_sock";
    s.pattern = Pattern::kIncast;
    s.device = Device::kSock;
    s.fabric = harness::TcpFabricKind::kFastEthernet;
    s.nodes = kN;
    s.op_timeout = ms(2);
    s.faults.partition(ms(1), fault::FaultPlan::kAnyNode, 0);
    specs.push_back(s);
  }
  {  // The same ring break under the hybrid device: small messages ride
     // the (broken) SCRAMNet low path, so timeouts propagate as on BBP.
    Spec s;
    s.name = "break_incast_hybrid";
    s.pattern = Pattern::kIncast;
    s.device = Device::kHybrid;
    s.fabric = harness::TcpFabricKind::kMyrinet;
    s.nodes = kN;
    s.bbp_slots = 8;
    s.op_timeout = ms(2);
    s.retries = 1;
    s.faults.link_down(us(150), kN - 1);
    specs.push_back(s);
  }
  {  // One slowed server (CPU dial x8): its clients' round trips stretch,
     // growing the tail while the median stays near the clean value.
    Spec s;
    s.name = "rpc_slow_server";
    s.pattern = Pattern::kRpc;
    s.device = Device::kBbp;
    s.nodes = kN;
    s.ops = 32;
    s.op_timeout = ms(50);
    s.faults.slow_node(us(500), kN / 2, 8.0);
    specs.push_back(s);
  }
  {  // Congested fabric window under a hot-spot: every frame in the window
     // pays extra delay, inflating the tail of the one-way distribution.
    Spec s;
    s.name = "hotspot_congested_sock";
    s.pattern = Pattern::kHotspot;
    s.device = Device::kSock;
    s.fabric = harness::TcpFabricKind::kFastEthernet;
    s.nodes = kN;
    s.op_timeout = ms(50);
    s.faults.fabric_congestion(us(500), ms(20), us(60));
    specs.push_back(s);
  }
  {  // Host-port congestion (I/O dial) plus a slow node (CPU dial) under
     // an all-to-all: per-node throughput skews, latency tail grows.
    Spec s;
    s.name = "alltoall_hostio_bbp";
    s.pattern = Pattern::kAllToAll;
    s.device = Device::kBbp;
    s.nodes = kN;
    s.op_timeout = ms(50);
    s.faults.host_congestion(us(300), 3, 6.0).slow_node(us(300), 5, 4.0);
    specs.push_back(s);
  }
  {  // The same break on a redundant ring: the carrier-loss switchover
     // restores connectivity after cfg.switchover, so the run completes
     // (losses bounded to in-flight traffic) instead of timing out.
    Spec s;
    s.name = "switchover_incast_bbp";
    s.pattern = Pattern::kIncast;
    s.device = Device::kBbp;
    s.nodes = kN;
    s.redundant_ring = true;
    s.op_timeout = ms(2);
    s.faults.link_down(us(400), kN - 1);
    specs.push_back(s);
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  sweep::Runner runner(sweep::parse_args(argc, argv).jobs);
  bench::header("Fault scenarios: degraded-mode behavior and tail latency",
                "robustness extension (paper Section 6 ring recovery; "
                "bounded-wait timeouts instead of hangs)");

  const std::vector<Spec> specs = catalog();
  const std::vector<workload::Report> reports = runner.map(
      "flt", specs, [](const Spec& s) { return workload::run(s); });

  for (usize i = 0; i < specs.size(); ++i)
    std::cout << "\n" << reports[i].render(specs[i]);

  const workload::Report& clean = reports[0];
  const workload::Report& bbp = reports[1];
  const workload::Report& sock = reports[2];
  const workload::Report& hybrid = reports[3];
  const workload::Report& rpc = reports[4];
  const workload::Report& hotspot = reports[5];
  const workload::Report& a2a = reports[6];
  const workload::Report& redun = reports[7];

  std::cout << "\nChecks:\n";
  bench::check_shape("clean baseline completes every op without a timeout",
                     clean.ops_timeout == 0 &&
                         clean.ops_ok == u64{kN - 1} * 24);
  bench::check_shape("broken-link incast on BBP returns timeouts, not hangs",
                     bbp.ops_timeout > 0 && bbp.ops_ok < clean.ops_ok);
  bench::check_shape("partitioned incast on sockets times out at the receiver",
                     sock.ops_timeout > 0 && fired(sock, FaultKind::kPartition) > 0);
  bench::check_shape("broken-link incast on hybrid times out and retried sends",
                     hybrid.ops_timeout > 0 && hybrid.retried > 0);
  bench::check_shape("slow server stretches the RPC tail (p999 > p50)",
                     rpc.latency.percentile_permille(999) >
                         rpc.latency.percentile_permille(500) &&
                         rpc.ops_timeout == 0);
  bench::check_shape("congestion window inflates the hot-spot tail",
                     fired(hotspot, FaultKind::kCongestion) > 0 &&
                         hotspot.latency.max() >
                             clean.latency.percentile_permille(500));
  bench::check_shape("host dials skew the all-to-all without losing ops",
                     a2a.ops_timeout == 0 && a2a.ops_ok == u64{kN} * 24);
  bench::check_shape("redundant ring switches over and completes more ops",
                     redun.ops_ok > bbp.ops_ok);
  return 0;
}
