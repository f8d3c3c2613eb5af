// Switched Fast Ethernet (100BASE-TX) model: store-and-forward switch,
// full-duplex links, 1500-byte MTU.
#pragma once

#include "netmodels/fabric.h"

namespace scrnet::netmodels {

struct EthernetConfig {
  double mbits_per_s = 100.0;
  u32 mtu = 1500;                 // L3 payload per frame
  u32 frame_overhead = 38;        // preamble 8 + MAC hdr 14 + FCS 4 + IFG 12
  u32 min_frame = 64;             // minimum Ethernet frame (hdr+payload+FCS)
  SimTime propagation = ns(500);  // host<->switch cable
  SimTime switch_latency = us(4); // lookup + forwarding overhead per frame
  // 1998-era Fast Ethernet workgroup switches were commonly cut-through
  // (forward after the header), which is what the paper's measured slopes
  // imply. Store-and-forward is kept as an ablation knob.
  bool store_and_forward = false;
};

class EthernetFabric final : public Fabric {
 public:
  EthernetFabric(sim::Simulation& sim, u32 hosts, EthernetConfig cfg = {})
      : Fabric(sim, hosts), cfg_(cfg) {}

  u32 mtu_payload() const override { return cfg_.mtu; }
  const EthernetConfig& config() const { return cfg_; }

  void transmit(Frame f) override;

 private:
  SimTime frame_wire_time(usize payload_bytes) const;

  EthernetConfig cfg_;
};

}  // namespace scrnet::netmodels
