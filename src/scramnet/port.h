// MemPort: the host's view of its SCRAMNet NIC memory bank.
//
// The BillBoard Protocol and scrshm are written entirely against this
// interface. SimHostPort (sim_port.h) implements it on the timed
// discrete-event ring model; tests wrap it to break one guarantee on
// purpose (a fence that does nothing) and show a check catches that.
#pragma once

#include <span>

#include "common/types.h"
#include "common/units.h"
#include "sim/fn_ref.h"

namespace scrnet::scramnet {

/// How a spin on replicated memory backs off between failed passes.
enum class Backoff : u8 {
  kPoll,       // one host poll gap: the loop around a PIO read
  kInterrupt,  // wait_write(): sleep until a watched word is written
};

class MemPort {
 public:
  virtual ~MemPort() = default;

  /// Size of the replicated bank in 32-bit words.
  virtual u32 bank_words() const = 0;

  /// Write one word (replicated to all nodes; visible locally at once).
  virtual void write_u32(u32 word_addr, u32 value) = 0;
  /// Read one word from the local replica.
  virtual u32 read_u32(u32 word_addr) = 0;
  /// Burst write / read (programmed I/O).
  virtual void write_block(u32 word_addr, std::span<const u32> words) = 0;
  virtual void read_block(u32 word_addr, std::span<u32> out) = 0;

  /// DMA write: the NIC masters the transfer; the calling process pays
  /// setup + completion and is *free during the transfer* (a subsequent
  /// port operation naturally lands after it).
  virtual void dma_write(u32 word_addr, std::span<const u32> words) = 0;

  /// Current virtual time; statistics and bounded waits only.
  virtual SimTime now() const = 0;

  /// Debug read of the local replica with no virtual-time cost and no bus
  /// transaction -- for invariant checkers (bbp::Validator) that must not
  /// perturb simulated timing.
  virtual u32 peek_u32(u32 word_addr) = 0;

  /// Return once every write this port issued is visible at every node
  /// that replicates the bank: every node of its ring, and on a
  /// RingHierarchy every node of every ring behind the bridges.
  virtual void fence() = 0;

  /// The one way to wait on replicated memory: calls ready() until it holds
  /// (true) or `deadline` (absolute; 0 = none) has passed (false), running
  /// `stall` (when set) and one back-off between failed passes. `site`, a
  /// string literal, names the loop to the kernel (sim::Process::spin_until).
  virtual bool spin_until(const char* site, SimTime deadline, sim::FnRef<bool()> ready,
                          Backoff backoff = Backoff::kPoll,
                          sim::FnRef<void()> stall = {}) = 0;
  /// Account local CPU work (protocol bookkeeping).
  virtual void cpu_delay(SimTime dt) = 0;

  // -- interrupt-driven receive (the paper's Section 7 future work) --------

  /// Arm the watched range [lo, hi) (word addresses). One range per port.
  virtual void watch_range(u32 lo, u32 hi) = 0;
  /// Sleep until a network write lands in the watched range; returns
  /// immediately if one landed since the previous wait_write(). Includes
  /// the interrupt dispatch + process wakeup cost.
  virtual void wait_write() = 0;
};

}  // namespace scrnet::scramnet
