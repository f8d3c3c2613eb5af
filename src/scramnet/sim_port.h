// SimHostPort: MemPort implementation binding one simulated process to one
// node of the discrete-event Ring, with PCI-era PIO timing.
#pragma once

#include <algorithm>
#include <cassert>
#include <memory>

#include "scramnet/config.h"
#include "scramnet/hierarchy.h"
#include "scramnet/port.h"
#include "scramnet/ring.h"
#include "sim/simulation.h"

namespace scrnet::scramnet {

class SimHostPort final : public MemPort {
 public:
  SimHostPort(Ring& ring, u32 node, sim::Process& proc)
      : ring_(ring), node_(node), proc_(proc) {}

  /// Global node `node` of a ring hierarchy: the port sits on its leaf
  /// ring, and fence() also waits for the bridges' copies of its writes.
  SimHostPort(RingHierarchy& h, u32 node, sim::Process& proc)
      : SimHostPort(h.leaf(h.ring_of(node)), h.local_of(node), proc) {
    hier_ = &h;
    leaf_ = h.ring_of(node);
  }

  u32 bank_words() const override { return ring_.bank_words(); }

  /// Attach this port's fault dials (fault::FaultPlan owns them and mutates
  /// them from scheduled events). nullptr (the default) means nominal.
  void set_dials(const PortDials* d) { dials_ = d; }

  void write_u32(u32 word_addr, u32 value) override {
    // Posted write: the bus transaction costs pio_write, after which the
    // word is in the NIC and on its way around the ring.
    proc_.delay(io_t(HostTimings::pio_write));
    ring_.host_write(node_, word_addr, value);
  }

  u32 read_u32(u32 word_addr) override {
    // Non-posted PCI read: the CPU stalls for the full round trip and the
    // value it gets is the bank content at completion time.
    proc_.delay(io_t(HostTimings::pio_read));
    return ring_.host_read(node_, word_addr);
  }

  void write_block(u32 word_addr, std::span<const u32> words) override {
    if (words.empty()) return;
    // Inject paced chunks first (pacing starts now), then burn the host
    // burst time; ring serialization overlaps the PIO burst.
    ring_.host_write_block(node_, word_addr, words,
                           io_t(HostTimings::burst_write_word));
    const auto more = static_cast<SimTime>(words.size() - 1);
    proc_.delay(io_t(HostTimings::pio_write + more * HostTimings::burst_write_word));
  }

  void read_block(u32 word_addr, std::span<u32> out) override {
    if (out.empty()) return;
    const auto more = static_cast<SimTime>(out.size() - 1);
    proc_.delay(io_t(HostTimings::pio_read + more * HostTimings::burst_read_word));
    ring_.host_read_block(node_, word_addr, out);
  }

  SimTime now() const override { return proc_.now(); }
  bool spin_until(const char* site, SimTime deadline, sim::FnRef<bool()> ready,
                  Backoff backoff = Backoff::kPoll,
                  sim::FnRef<void()> stall = {}) override {
    return proc_.spin_until(site, deadline, ready, [&] {
      if (stall) stall();
      if (backoff == Backoff::kInterrupt) return wait_write();
      proc_.delay(cpu_t(HostTimings::poll_gap));
    });
  }
  void cpu_delay(SimTime dt) override { proc_.delay(cpu_t(dt)); }

  u32 peek_u32(u32 word_addr) override { return ring_.host_read(node_, word_addr); }

  void fence() override {
    wait_settled([&] { return ring_.settled_at(node_); });
    if (!hier_) return;
    // Every write has now reached this leaf's bridge, which forwards it
    // round the backbone to the other bridges, and each of those round
    // its own leaf ring. A bridge forwards from the event that delivered
    // the packet to it, possibly at this very instant, and the forwarded
    // packet injects in a flush queued behind that event: the extra yield
    // lets both run before the next ring is read.
    proc_.yield();
    wait_settled([&] { return hier_->backbone().settled_at(leaf_); });
    proc_.yield();
    wait_settled([&] {
      SimTime last = 0;
      for (u32 r = 0; r < hier_->config().leaf_rings; ++r)
        last = std::max(last, hier_->leaf(r).settled_at(0));
      return last;
    });
  }

  // -- DMA (Section 2: "programmed I/O or DMA") -----------------------------

  void dma_write(u32 word_addr, std::span<const u32> words) override {
    if (words.empty()) return;
    // CPU: descriptor + doorbell, then the NIC masters the bus while the
    // process is free; ordering with later port writes is preserved by the
    // ring's per-sender insertion engine (tx_free_).
    proc_.delay(io_t(HostTimings::dma_setup));
    ring_.host_write_block(node_, word_addr, words, io_t(HostTimings::dma_per_word));
    proc_.delay(io_t(HostTimings::dma_complete));
  }

  // -- interrupt-driven receive (paper Section 7 future work) --------------

  void watch_range(u32 lo, u32 hi) override {
    if (!irq_) irq_ = std::make_unique<sim::Signal>(proc_.simulation());
    ring_.set_interrupt(node_, lo, hi, [this](u32) {
      ++pending_irqs_;
      irq_->notify_all();
    });
  }

  void wait_write() override {
    assert(irq_ && "watch_range() must be armed before wait_write()");
    while (pending_irqs_ == 0) irq_->wait(proc_);
    pending_irqs_ = 0;
    proc_.delay(HostTimings::irq_dispatch);  // handler + process wakeup
  }

 private:
  /// Yield first, so the writes and bridge relays recorded at this
  /// instant have injected, then wait until `settled()` has passed.
  template <typename F>
  void wait_settled(F settled) {
    proc_.yield();
    const SimTime t = settled();
    if (t > proc_.now()) proc_.delay(t - proc_.now());
  }

  SimTime io_t(SimTime t) const { return dials_ ? dial_scale(t, dials_->io) : t; }
  SimTime cpu_t(SimTime t) const { return dials_ ? dial_scale(t, dials_->cpu) : t; }

  Ring& ring_;
  u32 node_;
  sim::Process& proc_;
  RingHierarchy* hier_ = nullptr;  // set when attached to a hierarchy
  u32 leaf_ = 0;                   // ... then: the index of ring_ in it
  const PortDials* dials_ = nullptr;
  std::unique_ptr<sim::Signal> irq_;
  u64 pending_irqs_ = 0;
};

}  // namespace scrnet::scramnet
