// Myrinet model: 1.28 Gb/s links, source-routed wormhole (cut-through)
// crossbar switch -- plus the two host-side personalities the paper
// measures: the native Myrinet API and TCP/IP over Myrinet.
#pragma once

#include <span>

#include "netmodels/fabric.h"

namespace scrnet::netmodels {

struct MyrinetConfig {
  static constexpr double mbits_per_s = 1280.0;
  static constexpr u32 mtu = 8192;          // native API message cap per network op
  static constexpr u32 header_bytes = 16;   // route + type + CRC
  static constexpr SimTime propagation = ns(300);
  static constexpr SimTime switch_latency = ns(550);  // cut-through routing decision
};

class MyrinetFabric final : public Fabric {
 public:
  MyrinetFabric(sim::Simulation& sim, u32 hosts) : Fabric(sim, hosts) {}

  u32 mtu_payload() const override { return MyrinetConfig::mtu; }

  void transmit(Frame f) override;
};

/// Host-side cost model of the vendor ("MyriAPI"-era) messaging library the
/// paper benchmarks as "Myrinet API": each operation crosses into the
/// kernel-assisted library, stages the payload for the LANai DMA, and the
/// receiver pays a matching dispatch cost. Contemporary measurements put
/// the small-message one-way latency of this path in the tens of
/// microseconds -- far above research layers like FM, and that is exactly
/// what Figure 2 shows (SCRAMNet beats it below ~500 bytes).
struct MyrinetApiCosts {
  static constexpr SimTime send_fixed = us(20);     // library call + doorbell + DMA setup
  static constexpr SimTime recv_fixed = us(22);     // event dispatch + completion
  static constexpr SimTime per_byte_send = ns(12);  // staging copy to pinned DMA region
  static constexpr SimTime per_byte_recv = ns(12);  // copy-out to user buffer
};

/// Blocking message API over MyrinetFabric for one host.
class MyrinetApi {
 public:
  MyrinetApi(MyrinetFabric& fabric, u32 host) : fabric_(fabric), host_(host) {}

  /// Send `payload` to `dst`, splitting at the fabric MTU.
  void send(sim::Process& p, u32 dst, std::span<const u8> payload);

  /// Receive exactly `nbytes` from `src` (messages preserve boundaries but
  /// this API, like the paper's microbenchmarks, reads a known size).
  void recv(sim::Process& p, u32 src, std::span<u8> out, usize nbytes);

 private:
  MyrinetFabric& fabric_;
  u32 host_;
  // Per-source reassembly buffers (frames can interleave across sources).
  std::vector<std::vector<u8>> pending_ =
      std::vector<std::vector<u8>>(fabric_.hosts());
};

}  // namespace scrnet::netmodels
