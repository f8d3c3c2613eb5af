// ch_bbp: the SCRAMNet channel device -- the paper's port of MPICH.
//
// Every packet becomes exactly one BillBoard Protocol message (envelope
// words followed by payload words), so BBP's per-sender in-order delivery
// directly gives the channel the ordering MPICH requires, and bbp_Mcast
// gives the native multicast hook used by MPI_Bcast / MPI_Barrier.
#pragma once

#include "bbp/endpoint.h"
#include "scrmpi/channel.h"

namespace scrnet::scrmpi {

class BbpChannel final : public ChannelDevice, public RndvPut {
 public:
  /// `ep` must outlive the channel. Ranks are BBP ranks.
  explicit BbpChannel(bbp::Endpoint& ep) : ep_(ep) {}

  std::string_view kind() const override { return "bbp"; }
  u32 rank() const override { return ep_.rank(); }
  u32 size() const override { return ep_.procs(); }

  Status send_packet(u32 dst, const PktHeader& hdr,
                     std::span<const u8> payload) override;
  std::optional<Packet> poll_packet() override;
  u64 dropped_frames() const override { return dropped_frames_; }

  Status mcast_packet(std::span<const u32> dsts, const PktHeader& hdr,
                      std::span<const u8> payload) override;
  /// One framed post must fit the sender's billboard data partition
  /// (bank/procs); past this Endpoint::post rejects the message outright.
  /// bbp::Layout keeps that partition above 64 bytes, so the cap is never 0.
  u32 mcast_cap() const override {
    return (ep_.layout().max_message_bytes() - kHeaderBytes) & ~3u;
  }

  /// The channel-interface copy is a real extra pass over the payload on
  /// this device (user buffer -> packet frame) -- the cost the paper's
  /// Section 7 proposes eliminating with a direct ADI.
  SimTime pack_cost(u32 len) const override { return ns(45) * len; }
  SimTime unpack_cost(u32 len) const override { return ns(35) * len; }

  SimTime now() const override { return ep_.port().now(); }
  void cpu(SimTime dt) override { ep_.port().cpu_delay(dt); }
  bool spin_until(const char* site, SimTime deadline, sim::FnRef<bool()> ready) override {
    return ep_.port().spin_until(site, deadline, ready);
  }

  /// Eager limit: keep single messages well under the data partition so
  /// several can be in flight; beyond this the ADI uses rendezvous.
  u32 eager_limit() const override {
    return ep_.layout().max_message_bytes() / 4;
  }

  // Zero-copy rendezvous: any node can write any SCRAMNet address, so a
  // receiver-granted window extent (Layout::rndv_base) is a put target.
  // The ring's per-sender write ordering makes the FIN (a regular BBP
  // message from the same sender) arrive after the payload words.
  RndvPut* put() override { return ep_.layout().rndv_words > 0 ? this : nullptr; }
  Result<RndvPlacement> rndv_reserve(u32 bytes, std::span<u8> dest) override;
  Status rndv_put(u32 dst, const RndvPlacement& placement,
                  std::span<const u8> payload, const PktHeader& fin_hdr) override;
  Status rndv_complete(const RndvPlacement& placement, std::span<u8> buf,
                       u32 len) override;
  void rndv_release(const RndvPlacement& placement) override;

  bbp::Endpoint& endpoint() { return ep_; }

 private:
  bbp::Endpoint& ep_;
  u64 dropped_frames_ = 0;
};

}  // namespace scrnet::scrmpi
