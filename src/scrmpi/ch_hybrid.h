// ch_hybrid: a two-network channel device -- the paper's conclusion in
// code. Section 7: "SCRAMNet has characteristics complementary to those of
// networks usually used in clusters. This makes SCRAMNet a good candidate
// for use with a high bandwidth network within the same cluster. We are
// working on using SCRAMNet together with other networks such as Myrinet
// and ATM to design efficient communication subsystems ... which have low
// latency as well as high bandwidth."
//
// Small point-to-point packets ride the low-latency device (SCRAMNet/BBP);
// payloads above `threshold` ride the high-bandwidth device (e.g. TCP over
// Myrinet). MPI requires per-(src,dst) ordering, which a split across two
// networks would break, so point-to-point packets carry an 8-byte hybrid
// preamble with a per-destination sequence number and the receiver holds a
// reorder stash. Collective packets always use the low-latency device (it
// owns the hardware multicast and collectives are matched in arrival
// order), so they need no preamble.
#pragma once

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

#include "scrmpi/channel.h"

namespace scrnet::scrmpi {

class HybridChannel final : public ChannelDevice {
 public:
  /// Both devices must expose the same rank/size mapping (one host on both
  /// fabrics). `threshold` is the largest payload kept on `low_lat`.
  HybridChannel(ChannelDevice& low_lat, ChannelDevice& high_bw, u32 threshold)
      : low_(low_lat), high_(high_bw), threshold_(threshold),
        next_seq_(low_lat.size(), 0), expect_seq_(low_lat.size(), 0),
        stash_(low_lat.size()) {
    assert(low_.rank() == high_.rank() && low_.size() == high_.size());
  }

  std::string_view kind() const override { return "hybrid"; }
  u32 rank() const override { return low_.rank(); }
  u32 size() const override { return low_.size(); }

  Status send_packet(u32 dst, const PktHeader& hdr,
                     std::span<const u8> payload) override;
  std::optional<Packet> poll_packet() override;
  u64 dropped_frames() const override {
    return low_.dropped_frames() + high_.dropped_frames();
  }

  Status mcast_packet(std::span<const u32> dsts, const PktHeader& hdr,
                      std::span<const u8> payload) override {
    return low_.mcast_packet(dsts, hdr, payload);  // collectives stay on SCRAMNet
  }
  u32 mcast_cap() const override { return low_.mcast_cap(); }

  /// Per-byte costs follow the wire the payload will actually take.
  SimTime pack_cost(u32 len) const override {
    return len <= threshold_ ? low_.pack_cost(len) : high_.pack_cost(len);
  }
  SimTime unpack_cost(u32 len) const override {
    return len <= threshold_ ? low_.unpack_cost(len) : high_.unpack_cost(len);
  }

  SimTime now() const override { return low_.now(); }
  void cpu(SimTime dt) override { low_.cpu(dt); }
  bool spin_until(const char* site, SimTime deadline, sim::FnRef<bool()> ready) override {
    return low_.spin_until(site, deadline, ready);
  }

  /// Large sends should stay eager on the bulk network when possible.
  u32 eager_limit() const override {
    return std::max(threshold_, high_.eager_limit() - kPreambleBytes);
  }

  u64 low_packets() const { return low_pkts_; }
  u64 high_packets() const { return high_pkts_; }

 private:
  static constexpr u32 kPreambleBytes = 8;  // [seq, magic]
  static constexpr u32 kMagic = 0x48594252;  // "HYBR"

  static bool is_collective(PktKind k) {
    return k == PktKind::kCollData || k == PktKind::kCollBarrier ||
           k == PktKind::kCollRelease;
  }

  /// Unwrap a preambled p2p packet; returns its sequence number.
  static u32 unwrap(Packet& pkt);

  /// Release the next in-order packet from a source's stash, if present.
  std::optional<Packet> pop_ready(u32 src);

  ChannelDevice& low_;
  ChannelDevice& high_;
  u32 threshold_;
  std::vector<u32> next_seq_;    // per destination
  std::vector<u32> expect_seq_;  // per source
  std::vector<std::map<u32, Packet>> stash_;  // per source: seq -> packet
  u64 low_pkts_ = 0, high_pkts_ = 0;
};

}  // namespace scrnet::scrmpi
