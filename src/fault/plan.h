// Deterministic fault-injection plans.
//
// A FaultPlan is a seeded, virtual-time-scheduled description of what goes
// wrong during a run: links flap, a NIC runs at the wrong speed, a host
// port saturates, a node slows down, pauses, or crashes, a switch
// partitions. The plan is a plain copyable value -- a sweep job copies the
// spec's plan into its own simulation and arms it there -- and every event
// it injects is a pure function of the plan's data and virtual time, so
// two runs with the same plan produce bit-identical timelines regardless
// of --jobs or host scheduling.
//
// Arming validates every target up front (nonexistent link/node indices
// are an error Status, never an assert or a silent no-op) and then posts
// the timed events into the simulation. Ring faults go through
// scramnet::Ring's fault API; fabric faults install the plan as the
// netmodels::FaultHook; host faults turn the per-node PortDials that
// SimHostPort consults on every bus transaction.
//
// Layering: this subsystem knows the device models (ring, fabric, ports)
// but nothing about BBP/scrmpi -- protocols observe faults only through
// their effects (missing deliveries, stretched costs) and surface them as
// timeout Statuses; see docs/faults.md.
#pragma once

#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "common/units.h"
#include "netmodels/fabric.h"
#include "scramnet/config.h"
#include "sim/simulation.h"

namespace scrnet::scramnet {
class Ring;
}
namespace scrnet::obs {
class Counters;
}

namespace scrnet::fault {

/// Everything a plan can inject, one tag per injection mechanism.
enum class FaultKind : u32 {
  kLinkDown,    // ring: fail the link node -> node+1
  kLinkUp,      // ring: repair it
  kNicSpeed,    // ring: scale node's serialization (wrong-speed NIC)
  kHostIo,      // port dial: scale I/O-bus costs (PCIe/host-port congestion)
  kHostCpu,     // port dial: scale CPU/poll costs (slow node)
  kPause,       // workload: node stops issuing ops for a window
  kCrash,       // workload: node stops issuing ops permanently
  kPartition,   // fabric: drop all frames matching src/dst from `at` on
  kFrameLoss,   // fabric: seeded probabilistic drop inside a window
  kCongestion,  // fabric: add delay to every frame inside a window
  kCount,
};

constexpr std::string_view kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kNicSpeed: return "nic_speed";
    case FaultKind::kHostIo: return "host_io";
    case FaultKind::kHostCpu: return "host_cpu";
    case FaultKind::kPause: return "pause";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kPartition: return "partition_drops";
    case FaultKind::kFrameLoss: return "loss_drops";
    case FaultKind::kCongestion: return "congested_frames";
    case FaultKind::kCount: break;
  }
  return "unknown";
}

/// One timed, targeted event (ring / dial / workload kinds).
struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kLinkDown;
  u32 node = 0;
  double factor = 1.0;  // speed/dial kinds only
};

class FaultPlan final : public netmodels::FaultHook {
 public:
  /// Wildcard for partition endpoints.
  static constexpr u32 kAnyNode = 0xFFFFFFFFu;

  FaultPlan() = default;

  // -- builders (chainable; validated at arm time) -------------------------

  /// Fail the ring link from `node` to its downstream neighbor at `at`.
  FaultPlan& link_down(SimTime at, u32 node);
  /// Repair that link at `at`.
  FaultPlan& link_up(SimTime at, u32 node);
  /// A flapping link: starting at `first_down`, down for `down_for`, then
  /// up for `up_for`, repeated `cycles` times.
  FaultPlan& flapping_link(u32 node, SimTime first_down, SimTime down_for,
                           SimTime up_for, u32 cycles);
  /// Scale node `node`'s ring serialization by `factor` from `at` on
  /// (wrong-speed NIC; 1.0 restores nominal).
  FaultPlan& nic_speed(SimTime at, u32 node, double factor);
  /// Scale node `node`'s I/O-bus transaction costs by `factor` from `at`
  /// on (PCIe / host-port congestion).
  FaultPlan& host_congestion(SimTime at, u32 node, double factor);
  /// Scale node `node`'s protocol CPU + poll-loop costs by `factor` from
  /// `at` on (slow or overloaded node).
  FaultPlan& slow_node(SimTime at, u32 node, double factor);
  /// Node `node` issues no workload ops in [from, until).
  FaultPlan& pause_node(u32 node, SimTime from, SimTime until);
  /// Node `node` issues no workload ops from `at` on.
  FaultPlan& crash_node(SimTime at, u32 node);
  /// Drop every fabric frame from `src` to `dst` (kAnyNode wildcards)
  /// arriving at or after `at` -- a fail-stop partition. This is the only
  /// loss shape safe for the TCP stack: streams see a clean prefix then
  /// silence, never desynchronized framing (docs/faults.md).
  FaultPlan& partition(SimTime at, u32 src, u32 dst);
  /// Drop each fabric frame arriving in [from, until) with probability
  /// `prob`, decided by a seeded hash of (seed, src, dst, arrival) --
  /// deterministic and independent of delivery order.
  FaultPlan& frame_loss(SimTime from, SimTime until, double prob, u64 seed);
  /// Add `extra` to every fabric frame arriving in [from, until).
  FaultPlan& fabric_congestion(SimTime from, SimTime until, SimTime extra);

  bool empty() const {
    return events_.empty() && pauses_.empty() && partitions_.empty() &&
           loss_.empty() && congestion_.empty();
  }
  bool has_fabric_faults() const {
    return !partitions_.empty() || !loss_.empty() || !congestion_.empty();
  }

  // -- arming --------------------------------------------------------------

  /// Validate every event against the topology, then post the timed events
  /// into `sim` and (when fabric faults exist) install this plan as the
  /// fabric's FaultHook. The plan must outlive the simulation run and must
  /// not be copied or moved after arming (posted events point back at it).
  /// Node capacity comes from the ring when present, else the fabric.
  Status arm(sim::Simulation& sim, scramnet::Ring* ring,
             netmodels::Fabric* fabric = nullptr);

  /// Arm only host-level faults (dials, pause, crash) for a topology with
  /// `nodes` hosts and no flat Ring or Fabric -- e.g. a RingHierarchy.
  /// Ring and fabric kinds in the plan are an error here.
  Status arm_hosts(sim::Simulation& sim, u32 nodes);

  /// Per-node dial block for port attachment (stable address once armed);
  /// nullptr before arming or for an out-of-range node.
  const scramnet::PortDials* dials(u32 node) const {
    return node < dials_.size() ? &dials_[node] : nullptr;
  }

  // -- queries (pure functions of plan data + virtual time) ----------------

  /// False once `node` has crashed or while it is inside a pause window.
  bool node_active(u32 node, SimTime t) const;
  /// End of the pause window covering (node, t), or 0 if not paused.
  SimTime paused_until(u32 node, SimTime t) const;
  /// True once `node` has crashed (at or after its crash event).
  bool crashed(u32 node, SimTime t) const;

  // -- fabric hook ---------------------------------------------------------

  Verdict on_frame(const netmodels::Frame& f, SimTime arrival) override;

  // -- observability -------------------------------------------------------

  /// Count of injections of `k` that have actually taken effect so far.
  u64 fired(FaultKind k) const { return fired_[static_cast<u32>(k)].get(); }
  /// Publish per-kind injection counts under the group "fault".
  void publish_counters(obs::Counters& c) const;

 private:
  struct PauseWindow {
    u32 node = 0;
    SimTime from = 0, until = 0;
  };
  struct Partition {
    SimTime at = 0;
    u32 src = kAnyNode, dst = kAnyNode;
  };
  struct LossWindow {
    SimTime from = 0, until = 0;
    double prob = 0.0;
    u64 seed = 0;
  };
  struct CongestionWindow {
    SimTime from = 0, until = 0;
    SimTime extra = 0;
  };

  Status validate(const scramnet::Ring* ring, const netmodels::Fabric* fabric,
                  u32 nodes, bool hosts_only) const;
  Status arm_impl(sim::Simulation& sim, scramnet::Ring* ring,
                  netmodels::Fabric* fabric, u32 nodes, bool hosts_only);
  void fire(FaultKind k) { fired_[static_cast<u32>(k)].inc(); }

  std::vector<FaultEvent> events_;
  std::vector<PauseWindow> pauses_;
  std::vector<Partition> partitions_;
  std::vector<LossWindow> loss_;
  std::vector<CongestionWindow> congestion_;
  std::vector<scramnet::PortDials> dials_;  // sized at arm; ports point here
  Counter fired_[static_cast<u32>(FaultKind::kCount)];
  bool armed_ = false;
};

}  // namespace scrnet::fault
