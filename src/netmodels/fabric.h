// Baseline cluster fabrics (Fast Ethernet / ATM / Myrinet) -- the networks
// the paper compares SCRAMNet against in Figures 2, 3, 5 and 6.
//
// A Fabric connects `hosts` workstations through a single switch (the
// paper's testbed is a 4-node cluster). transmit() models NIC + wire +
// switch timing and delivers the frame into the destination host's RX
// mailbox at the simulated arrival instant. Host software costs (TCP/IP
// stack, native APIs) live in separate layers on top.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "sim/mailbox.h"
#include "sim/simulation.h"

namespace scrnet::netmodels {

struct Frame {
  u32 src = 0;
  u32 dst = 0;
  std::vector<u8> payload;  // includes any protocol headers added above L2
};

/// Injection point for deterministic fault plans (fault/plan.h). The fabric
/// consults the hook once per frame at delivery-scheduling time; the hook
/// may drop the frame (partition / fail-stop loss) or stretch its arrival
/// (congestion). Implementations must be deterministic functions of the
/// frame and virtual time -- the sweep engine depends on it.
class FaultHook {
 public:
  struct Verdict {
    bool drop = false;
    SimTime extra_delay = 0;
  };
  virtual ~FaultHook() = default;
  virtual Verdict on_frame(const Frame& f, SimTime arrival) = 0;
};

class Fabric {
 public:
  Fabric(sim::Simulation& sim, u32 hosts)
      : sim_(sim), hosts_(hosts), in_busy_(hosts, 0), out_busy_(hosts, 0) {
    rx_.reserve(hosts);
    for (u32 h = 0; h < hosts; ++h) rx_.push_back(std::make_unique<sim::Mailbox<Frame>>(sim));
  }
  virtual ~Fabric() = default;

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  u32 hosts() const { return hosts_; }
  sim::Simulation& simulation() { return sim_; }
  sim::Mailbox<Frame>& rx(u32 host) { return *rx_[host]; }

  /// Hand a frame to the source NIC. Returns immediately (the NIC queues);
  /// wire/switch timing is modeled inside, ending in an rx() push.
  virtual void transmit(Frame f) = 0;

  /// Maximum payload bytes a single frame may carry.
  virtual u32 mtu_payload() const = 0;

  u64 frames_delivered() const { return delivered_.get(); }
  u64 bytes_delivered() const { return bytes_.get(); }
  u64 frames_dropped() const { return dropped_.get(); }

  /// Install (or clear, with nullptr) the fault hook. Not owned; must
  /// outlive the fabric or be cleared first.
  void set_fault_hook(FaultHook* h) { fault_ = h; }

 protected:
  /// Schedule one frame of `wire` serialization time through the switch and
  /// return its arrival time at `dst`. The frame starts onto `src`'s uplink
  /// once that link is free, and onto `dst`'s output link `head` later (the
  /// fabric's cut-through or store-and-forward delay) or once that link is
  /// free, whichever is later; it arrives `wire + propagation` after that.
  SimTime cross_switch(u32 src, u32 dst, SimTime wire, SimTime head,
                       SimTime propagation) {
    const SimTime tx_start = std::max(sim_.now(), in_busy_[src]);
    in_busy_[src] = tx_start + wire;
    const SimTime out_start = std::max(tx_start + head, out_busy_[dst]);
    out_busy_[dst] = out_start + wire;
    return out_start + wire + propagation;
  }

  void deliver_at(SimTime t, Frame f) {
    if (fault_ != nullptr) {
      const FaultHook::Verdict v = fault_->on_frame(f, t);
      if (v.drop) {
        dropped_.inc();
        return;
      }
      t += v.extra_delay;
    }
    sim_.post_at(t, [this, f = std::move(f)]() mutable {
      delivered_.inc();
      bytes_.inc(f.payload.size());
      rx_[f.dst]->push(std::move(f));
    });
  }

  sim::Simulation& sim_;
  u32 hosts_;
  std::vector<std::unique_ptr<sim::Mailbox<Frame>>> rx_;
  std::vector<SimTime> in_busy_;   // host -> switch link
  std::vector<SimTime> out_busy_;  // switch -> host link
  Counter delivered_, bytes_, dropped_;
  FaultHook* fault_ = nullptr;
};

}  // namespace scrnet::netmodels
