// ATM (OC-3c, 155.52 Mb/s) model with AAL5 segmentation-and-reassembly.
//
// A PDU is padded (payload + 8-byte AAL5 trailer, rounded up to a multiple
// of 48) and carried in 53-byte cells. The switch is cell-cut-through: the
// PDU is available at the receiver when its last cell lands.
#pragma once

#include "netmodels/fabric.h"

namespace scrnet::netmodels {

struct AtmConfig {
  static constexpr double mbits_per_s = 155.52;
  static constexpr u32 mtu = 9180;                   // classical-IP-over-ATM default MTU
  static constexpr SimTime propagation = ns(500);
  static constexpr SimTime switch_cell_latency = us(2);  // first-cell pipeline fill
};

class AtmFabric final : public Fabric {
 public:
  AtmFabric(sim::Simulation& sim, u32 hosts) : Fabric(sim, hosts) {}

  u32 mtu_payload() const override { return AtmConfig::mtu; }

  /// Number of 53-byte cells for a PDU of `payload_bytes` (AAL5).
  static u32 cells_for(usize payload_bytes) {
    const u64 padded = ceil_div<u64>(payload_bytes + 8, 48) * 48;
    return static_cast<u32>(padded / 48);
  }

  void transmit(Frame f) override;
};

}  // namespace scrnet::netmodels
