// MemPort: the host's view of its SCRAMNet NIC memory bank.
//
// The BillBoard Protocol is written entirely against this interface, so the
// identical protocol code runs on
//   * SimHostPort   -- the timed discrete-event model (benchmarks/figures);
//   * ThreadPort    -- a real-threads replicated-memory emulation
//                      (concurrency stress tests).
#pragma once

#include <span>

#include "common/types.h"
#include "common/units.h"

namespace scrnet::scramnet {

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
  /// port operation naturally lands after it). Default: fall back to PIO.
  virtual void dma_write(u32 word_addr, std::span<const u32> words) {
    write_block(word_addr, words);
  }
  /// True if dma_write is a real DMA engine rather than the PIO fallback.
  virtual bool has_dma() const { return false; }

  /// Current virtual time (0 on ports without a clock); statistics only.
  virtual SimTime now() const { return 0; }

  /// Debug read of the local replica with no virtual-time cost and no bus
  /// transaction -- for invariant checkers (bbp::Validator) that must not
  /// perturb simulated timing. Timed ports override this; the default is
  /// only correct where read_u32 is already free.
  virtual u32 peek_u32(u32 word_addr) { return read_u32(word_addr); }

  /// Return once every write this port issued is visible at every node of
  /// its ring. On a RingHierarchy the port sits on a leaf ring, and the
  /// fence covers that leaf ring only, not the other rings behind the
  /// bridges. The default suits backends whose writes are visible at once.
  virtual void fence() {}

  /// Host-side backoff between polls of a flag word.
  virtual void poll_pause() = 0;
  /// Account local CPU work (protocol bookkeeping). No-op on real threads.
  virtual void cpu_delay(SimTime dt) = 0;

  // -- optional interrupt support (the paper's Section 7 future work) ------

  /// True if the port can sleep until a network-delivered write lands in a
  /// watched address range instead of polling across the I/O bus.
  virtual bool supports_wait_write() const { return false; }
  /// Arm the watched range [lo, hi) (word addresses). One range per port.
  virtual void watch_range(u32 /*lo*/, u32 /*hi*/) {}
  /// Sleep until a network write lands in the watched range; returns
  /// immediately if one landed since the previous wait_write(). Includes
  /// the interrupt dispatch + process wakeup cost.
  virtual void wait_write() {}
};

}  // namespace scrnet::scramnet
