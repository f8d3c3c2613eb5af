// SCRAMNet device-model configuration.
//
// Constants follow Section 2 of the paper and the SYSTRAN SCRAMNet+ data
// sheet it cites:
//   * ring of up to 256 nodes, fiber-optic, register-insertion;
//   * node-to-node propagation 250-800 ns depending on transmission mode;
//   * fixed 4-byte packets: 6.5 MB/s maximum throughput, lowest latency;
//   * variable packets (4 B..1 KB): 16.7 MB/s maximum throughput;
//   * writes to the NIC memory bank are reflected into every other bank
//     with bounded latency; memory is shared but NOT coherent.
//
// Host-interface timings model a PCI Pentium II/300 workstation (the
// paper's testbed): posted PIO writes are cheap, PIO reads across the I/O
// bus are expensive -- the paper explicitly blames receive overhead on
// "memory access across the I/O bus".
#pragma once

#include "common/types.h"
#include "common/units.h"

namespace scrnet::scramnet {

/// Ring transmission mode (Section 2 of the paper).
enum class PacketMode {
  kFixed4,    // fixed 4-byte packets, 6.5 MB/s, lowest per-packet latency
  kVariable,  // 4 B .. 1 KB packets, 16.7 MB/s peak
};

struct RingConfig {
  u32 nodes = 4;               // paper testbed: 4 workstations
  u32 bank_words = 1u << 20;   // 4 MB replicated memory bank (32-bit words)
  PacketMode mode = PacketMode::kVariable;
  SimTime hop_latency = ns(400);          // within the 250-800 ns band
  u32 max_var_packet_bytes = 1024;        // variable-mode packet cap

  // Calibration, not dials: the paper's §2 rates and per-packet framing.
  static constexpr double fixed_mbps = 6.5;              // payload MB/s, fixed mode
  static constexpr double variable_mbps = 16.7;          // payload MB/s, variable mode
  static constexpr SimTime per_packet_overhead = ns(60); // framing/insertion per packet

  // Redundant cabling (a SCRAMNet+ deployment option): on a link failure
  // the nodes switch to the backup ring after `switchover`; without it,
  // traffic crossing a failed link is simply lost (SCRAMNet has no
  // retransmission -- reliability is a property of the ring).
  bool redundant_ring = false;
  SimTime switchover = us(50);

  /// Serialization occupancy of a packet carrying `payload_bytes`.
  SimTime packet_occupancy(u32 payload_bytes) const {
    if (mode == PacketMode::kFixed4) {
      return transfer_time(4, fixed_mbps);
    }
    return per_packet_overhead + transfer_time(payload_bytes, variable_mbps);
  }

  bool valid() const {
    return nodes >= 2 && nodes <= 256 && bank_words >= 64 &&
           max_var_packet_bytes >= 4 && (max_var_packet_bytes % 4) == 0;
  }
};

/// Host (CPU + I/O bus) access costs for one workstation. Calibration
/// constants; per-node slowdowns come from PortDials.
struct HostTimings {
  static constexpr SimTime pio_write = ns(250);     // posted PCI write, one 32-bit word
  static constexpr SimTime pio_read = ns(900);      // PCI read (non-posted, round trip)
  static constexpr SimTime burst_write_word = ns(240);  // next word in a write burst
  static constexpr SimTime burst_read_word = ns(280);   // next word in a read burst
  static constexpr SimTime poll_gap = ns(300);      // host loop overhead between polls
  static constexpr SimTime irq_dispatch = us(7);    // interrupt + wakeup (Linux 2.0)

  // DMA engine (Section 2: "for larger data transfers, programmed I/O or
  // DMA can be used"): one descriptor setup, then the NIC masters the bus
  // at burst rate while the CPU is free; completion costs a check/IRQ.
  static constexpr SimTime dma_setup = us(3);       // descriptor write + doorbell
  static constexpr SimTime dma_per_word = ns(90);   // bus-master burst, faster than PIO
  static constexpr SimTime dma_complete = us(1);    // completion status handling
};

/// Per-node runtime dials a fault plan can turn mid-run (fault/plan.h).
/// `io` scales every I/O-bus transaction (PIO, bursts, DMA pacing) --
/// modeling PCIe/host-port congestion; `cpu` scales protocol CPU costs and
/// the host's poll loop -- modeling a slow or overloaded node. Ports hold a
/// pointer so an armed plan's scheduled events take effect immediately;
/// both default to 1.0, and ports skip the multiply entirely at 1.0 so a
/// clean run's virtual timeline is bit-identical with or without a plan.
struct PortDials {
  double io = 1.0;
  double cpu = 1.0;
};

/// Scale a virtual-time cost by a dial factor (identity at 1.0).
inline SimTime dial_scale(SimTime t, double f) {
  if (f == 1.0) return t;
  return static_cast<SimTime>(static_cast<double>(t) * f);
}

}  // namespace scrnet::scramnet
