// ch_rdma: MPICH over an RDMA-capable NIC (netmodels/rdma.h) -- the
// MPICH2-over-InfiniBand design from PAPERS.md (arXiv cs/0310059) on the
// simulated testbed.
//
// Eager packets ride the two-sided frame path (one frame per packet, a
// staging copy into the NIC bounce buffer -- the classic channel cost).
// Rendezvous payloads skip all of it: the receiver registers its posted
// buffer (rndv_reserve), the sender's NIC DMAs the bytes straight into it
// (rndv_put) and the FIN frame follows the CQE, so by the time the ADI
// completes the request the data is already in user memory and
// rndv_complete costs one CQ poll.
#pragma once

#include "netmodels/rdma.h"
#include "scrmpi/channel.h"
#include "sim/simulation.h"

namespace scrnet::scrmpi {

class RdmaChannel final : public ChannelDevice, public RndvPut {
 public:
  /// One channel per rank; `proc` is the simulated process running the
  /// rank and the channel's world rank equals its fabric host id.
  RdmaChannel(netmodels::RdmaFabric& fabric, sim::Process& proc, u32 host,
              u32 size)
      : fabric_(fabric), proc_(proc), host_(host), size_(size) {}

  std::string_view kind() const override { return "rdma"; }
  u32 rank() const override { return host_; }
  u32 size() const override { return size_; }

  Status send_packet(u32 dst, const PktHeader& hdr,
                     std::span<const u8> payload) override;
  std::optional<Packet> poll_packet() override;

  /// Eager path stages payload into the pinned bounce buffer (send) and
  /// copies out of the rx ring (recv) -- the copies rendezvous eliminates.
  SimTime pack_cost(u32 len) const override { return ns(10) * len; }
  SimTime unpack_cost(u32 len) const override { return ns(10) * len; }

  SimTime now() const override { return proc_.now(); }
  void cpu(SimTime dt) override { proc_.delay(dt); }
  bool spin_until(const char* site, SimTime deadline, sim::FnRef<bool()> ready) override {
    return proc_.spin_until(site, deadline, ready, [this] { proc_.delay(kPollGap); });
  }

  /// One packet = one frame: envelope + payload must fit the wire MTU.
  u32 eager_limit() const override {
    return fabric_.mtu_payload() - kHeaderBytes;
  }

  // Zero-copy rendezvous: registration-based placement, NIC-executed put,
  // FIN sent only after the sender's CQE (data provably delivered).
  RndvPut* put() override { return this; }
  Result<RndvPlacement> rndv_reserve(u32 bytes, std::span<u8> dest) override;
  Status rndv_put(u32 dst, const RndvPlacement& placement,
                  std::span<const u8> payload, const PktHeader& fin_hdr) override;
  Status rndv_complete(const RndvPlacement& placement, std::span<u8> buf,
                       u32 len) override;
  void rndv_release(const RndvPlacement& placement) override;

  netmodels::RdmaFabric& fabric() { return fabric_; }

 private:
  static constexpr SimTime kPollGap = ns(500);  // host loop between empty polls

  netmodels::RdmaFabric& fabric_;
  sim::Process& proc_;
  u32 host_;
  u32 size_;
  u64 next_wr_ = 1;
};

}  // namespace scrnet::scrmpi
