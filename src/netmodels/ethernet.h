// Switched Fast Ethernet (100BASE-TX) model: store-and-forward switch,
// full-duplex links, 1500-byte MTU.
#pragma once

#include "netmodels/fabric.h"

namespace scrnet::netmodels {

struct EthernetConfig {
  // 1998-era Fast Ethernet workgroup switches were commonly cut-through
  // (forward after the header), which is what the paper's measured slopes
  // imply. Store-and-forward is kept as an ablation knob.
  bool store_and_forward = false;

  static constexpr double mbits_per_s = 100.0;
  static constexpr u32 mtu = 1500;                  // L3 payload per frame
  static constexpr u32 frame_overhead = 38;  // preamble 8 + MAC hdr 14 + FCS 4 + IFG 12
  static constexpr u32 min_frame = 64;       // minimum Ethernet frame (hdr+payload+FCS)
  static constexpr SimTime propagation = ns(500);   // host<->switch cable
  static constexpr SimTime switch_latency = us(4);  // lookup + forwarding per frame
};

class EthernetFabric final : public Fabric {
 public:
  EthernetFabric(sim::Simulation& sim, u32 hosts, EthernetConfig cfg = {})
      : Fabric(sim, hosts), cfg_(cfg) {}

  u32 mtu_payload() const override { return EthernetConfig::mtu; }

  void transmit(Frame f) override;

 private:
  SimTime frame_wire_time(usize payload_bytes) const;

  EthernetConfig cfg_;
};

}  // namespace scrnet::netmodels
