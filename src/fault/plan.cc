#include "fault/plan.h"

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "obs/counters.h"
#include "scramnet/ring.h"

namespace scrnet::fault {

namespace {

bool is_ring_kind(FaultKind k) {
  return k == FaultKind::kLinkDown || k == FaultKind::kLinkUp ||
         k == FaultKind::kNicSpeed;
}

bool is_dial_kind(FaultKind k) {
  return k == FaultKind::kHostIo || k == FaultKind::kHostCpu;
}

std::string bad_node(std::string_view what, u32 node) {
  return std::string("fault: ").append(what).append(" targets nonexistent node ").append(
      std::to_string(node));
}

}  // namespace

// -- builders ---------------------------------------------------------------

FaultPlan& FaultPlan::link_down(SimTime at, u32 node) {
  events_.push_back({at, FaultKind::kLinkDown, node, 1.0});
  return *this;
}

FaultPlan& FaultPlan::link_up(SimTime at, u32 node) {
  events_.push_back({at, FaultKind::kLinkUp, node, 1.0});
  return *this;
}

FaultPlan& FaultPlan::flapping_link(u32 node, SimTime first_down,
                                    SimTime down_for, SimTime up_for,
                                    u32 cycles) {
  SimTime t = first_down;
  for (u32 c = 0; c < cycles; ++c) {
    link_down(t, node);
    link_up(t + down_for, node);
    t += down_for + up_for;
  }
  return *this;
}

FaultPlan& FaultPlan::nic_speed(SimTime at, u32 node, double factor) {
  events_.push_back({at, FaultKind::kNicSpeed, node, factor});
  return *this;
}

FaultPlan& FaultPlan::host_congestion(SimTime at, u32 node, double factor) {
  events_.push_back({at, FaultKind::kHostIo, node, factor});
  return *this;
}

FaultPlan& FaultPlan::slow_node(SimTime at, u32 node, double factor) {
  events_.push_back({at, FaultKind::kHostCpu, node, factor});
  return *this;
}

FaultPlan& FaultPlan::pause_node(u32 node, SimTime from, SimTime until) {
  pauses_.push_back({node, from, until});
  return *this;
}

FaultPlan& FaultPlan::crash_node(SimTime at, u32 node) {
  events_.push_back({at, FaultKind::kCrash, node, 1.0});
  return *this;
}

FaultPlan& FaultPlan::partition(SimTime at, u32 src, u32 dst) {
  partitions_.push_back({at, src, dst});
  return *this;
}

FaultPlan& FaultPlan::frame_loss(SimTime from, SimTime until, double prob,
                                 u64 seed) {
  loss_.push_back({from, until, prob, seed});
  return *this;
}

FaultPlan& FaultPlan::fabric_congestion(SimTime from, SimTime until,
                                        SimTime extra) {
  congestion_.push_back({from, until, extra});
  return *this;
}

// -- arming -----------------------------------------------------------------

Status FaultPlan::validate(const scramnet::Ring* ring,
                           const netmodels::Fabric* fabric, u32 nodes,
                           bool hosts_only) const {
  for (const FaultEvent& e : events_) {
    if (is_ring_kind(e.kind)) {
      if (hosts_only || ring == nullptr)
        return Status::InvalidArg(std::string("fault: ") +
                                  std::string(kind_name(e.kind)) +
                                  " requires a scramnet ring");
      if (e.node >= nodes) return Status::InvalidArg(bad_node(kind_name(e.kind), e.node));
      if (e.kind == FaultKind::kNicSpeed && !(e.factor > 0.0))
        return Status::InvalidArg("fault: nic_speed factor must be positive");
    } else if (is_dial_kind(e.kind)) {
      if (e.node >= nodes) return Status::InvalidArg(bad_node(kind_name(e.kind), e.node));
      if (!(e.factor > 0.0))
        return Status::InvalidArg("fault: dial factor must be positive");
    } else {  // kPause never lands in events_; kCrash does
      if (e.node >= nodes) return Status::InvalidArg(bad_node(kind_name(e.kind), e.node));
    }
  }
  for (const PauseWindow& p : pauses_) {
    if (p.node >= nodes) return Status::InvalidArg(bad_node("pause", p.node));
    if (p.until <= p.from)
      return Status::InvalidArg("fault: pause window must have until > from");
  }
  if (has_fabric_faults() && (hosts_only || fabric == nullptr))
    return Status::InvalidArg("fault: fabric faults require a fabric");
  for (const Partition& p : partitions_) {
    if (p.src != kAnyNode && p.src >= nodes)
      return Status::InvalidArg(bad_node("partition src", p.src));
    if (p.dst != kAnyNode && p.dst >= nodes)
      return Status::InvalidArg(bad_node("partition dst", p.dst));
  }
  for (const LossWindow& w : loss_) {
    if (w.prob < 0.0 || w.prob > 1.0)
      return Status::InvalidArg("fault: loss probability must be in [0, 1]");
    if (w.until <= w.from)
      return Status::InvalidArg("fault: loss window must have until > from");
  }
  for (const CongestionWindow& c : congestion_) {
    if (c.extra < 0)
      return Status::InvalidArg("fault: congestion extra delay must be >= 0");
    if (c.until <= c.from)
      return Status::InvalidArg("fault: congestion window must have until > from");
  }
  return Status::Ok();
}

Status FaultPlan::arm(sim::Simulation& sim, scramnet::Ring* ring,
                      netmodels::Fabric* fabric) {
  u32 nodes = 0;
  if (ring != nullptr) {
    nodes = ring->nodes();
  } else if (fabric != nullptr) {
    nodes = fabric->hosts();
  } else {
    return Status::InvalidArg("fault: arm requires a ring or a fabric");
  }
  return arm_impl(sim, ring, fabric, nodes, /*hosts_only=*/false);
}

Status FaultPlan::arm_hosts(sim::Simulation& sim, u32 nodes) {
  if (nodes == 0) return Status::InvalidArg("fault: arm_hosts needs nodes > 0");
  return arm_impl(sim, nullptr, nullptr, nodes, /*hosts_only=*/true);
}

Status FaultPlan::arm_impl(sim::Simulation& sim, scramnet::Ring* ring,
                           netmodels::Fabric* fabric, u32 nodes,
                           bool hosts_only) {
  if (armed_) return Status::Unavailable("fault: plan already armed");
  if (Status st = validate(ring, fabric, nodes, hosts_only); !st.ok()) return st;

  dials_.assign(nodes, scramnet::PortDials{});
  for (const FaultEvent& e : events_) {
    switch (e.kind) {
      case FaultKind::kLinkDown:
        sim.post_at(e.at, [this, ring, e] {
          (void)ring->fail_link(e.node);  // index validated at arm
          fire(FaultKind::kLinkDown);
        });
        break;
      case FaultKind::kLinkUp:
        sim.post_at(e.at, [this, ring, e] {
          (void)ring->heal_link(e.node);
          fire(FaultKind::kLinkUp);
        });
        break;
      case FaultKind::kNicSpeed:
        sim.post_at(e.at, [this, ring, e] {
          (void)ring->set_node_speed_factor(e.node, e.factor);
          fire(FaultKind::kNicSpeed);
        });
        break;
      case FaultKind::kHostIo:
        sim.post_at(e.at, [this, e] {
          dials_[e.node].io = e.factor;
          fire(FaultKind::kHostIo);
        });
        break;
      case FaultKind::kHostCpu:
        sim.post_at(e.at, [this, e] {
          dials_[e.node].cpu = e.factor;
          fire(FaultKind::kHostCpu);
        });
        break;
      case FaultKind::kCrash:
        // The crash itself lives in plan data (crashed() is consulted by
        // the workload); the event only records that it took effect.
        sim.post_at(e.at, [this] { fire(FaultKind::kCrash); });
        break;
      default:
        break;
    }
  }
  for (const PauseWindow& p : pauses_) {
    sim.post_at(p.from, [this] { fire(FaultKind::kPause); });
  }
  if (has_fabric_faults()) fabric->set_fault_hook(this);
  armed_ = true;
  return Status::Ok();
}

// -- queries ----------------------------------------------------------------

bool FaultPlan::crashed(u32 node, SimTime t) const {
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kCrash && e.node == node && t >= e.at) return true;
  }
  return false;
}

SimTime FaultPlan::paused_until(u32 node, SimTime t) const {
  SimTime until = 0;
  for (const PauseWindow& p : pauses_) {
    if (p.node == node && t >= p.from && t < p.until)
      until = std::max(until, p.until);
  }
  return until;
}

bool FaultPlan::node_active(u32 node, SimTime t) const {
  return !crashed(node, t) && paused_until(node, t) == 0;
}

// -- fabric hook ------------------------------------------------------------

netmodels::FaultHook::Verdict FaultPlan::on_frame(const netmodels::Frame& f,
                                                  SimTime arrival) {
  Verdict v;
  for (const Partition& p : partitions_) {
    if (arrival >= p.at && (p.src == kAnyNode || p.src == f.src) &&
        (p.dst == kAnyNode || p.dst == f.dst)) {
      fire(FaultKind::kPartition);
      v.drop = true;
      return v;
    }
  }
  for (const LossWindow& w : loss_) {
    if (arrival < w.from || arrival >= w.until) continue;
    // Hash-based coin flip: a pure function of (seed, src, dst, arrival),
    // so the verdict does not depend on how many frames were seen before.
    u64 s = w.seed ^ ((u64{f.src} << 32) | f.dst);
    s ^= static_cast<u64>(arrival) * 0x9E3779B97F4A7C15ull;
    const u64 h = splitmix64(s);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < w.prob) {
      fire(FaultKind::kFrameLoss);
      v.drop = true;
      return v;
    }
  }
  for (const CongestionWindow& c : congestion_) {
    if (arrival >= c.from && arrival < c.until) {
      v.extra_delay += c.extra;
      fire(FaultKind::kCongestion);
    }
  }
  return v;
}

// -- observability ----------------------------------------------------------

void FaultPlan::publish_counters(obs::Counters& c) const {
  for (u32 k = 0; k < static_cast<u32>(FaultKind::kCount); ++k) {
    c.add("fault", kind_name(static_cast<FaultKind>(k)), fired_[k].get());
  }
}

}  // namespace scrnet::fault
