// ch_sock: the sockets channel device -- MPICH-over-TCP/IP, used for the
// paper's Fast Ethernet, ATM and Myrinet(TCP) MPI baselines (Figures 3, 5
// and 6).
//
// Packets are framed on the per-source byte stream as
// [20-byte envelope][payload]. poll_packet() absorbs whatever frames the
// fabric has delivered and returns a packet once one source's stream holds
// a complete frame. An empty poll costs O(1): the streams are rescanned
// only after a frame has been absorbed since the last scan that found
// nothing.
#pragma once

#include "netmodels/tcp.h"
#include "scrmpi/channel.h"
#include "sim/simulation.h"

namespace scrnet::scrmpi {

class SockChannel final : public ChannelDevice {
 public:
  /// One channel per rank; `stack` is this host's TCP stack and `proc` the
  /// simulated process running the rank.
  SockChannel(netmodels::TcpStack& stack, sim::Process& proc, u32 size)
      : stack_(stack), proc_(proc), size_(size), want_(size, 0) {}

  std::string_view kind() const override { return "sock"; }
  u32 rank() const override { return stack_.host(); }
  u32 size() const override { return size_; }

  Status send_packet(u32 dst, const PktHeader& hdr,
                     std::span<const u8> payload) override;
  std::optional<Packet> poll_packet() override;

  /// MPICH-over-TCP folds its packetization into the user<->kernel copy
  /// the stack already charges; only a small header/bookkeeping per-byte
  /// touch remains at this layer.
  SimTime pack_cost(u32 len) const override { return ns(8) * len; }
  SimTime unpack_cost(u32 len) const override { return ns(5) * len; }

  SimTime now() const override { return proc_.now(); }
  void cpu(SimTime dt) override { proc_.delay(dt); }
  bool spin_until(const char* site, SimTime deadline, sim::FnRef<bool()> ready) override {
    return proc_.spin_until(site, deadline, ready, [this] { proc_.delay(kPollGap); });
  }

  /// TCP streams carry any size; cap eager at 64 KB so rendezvous is still
  /// exercised and huge sends don't monopolize socket buffers.
  u32 eager_limit() const override { return 64 * 1024; }

 private:
  static constexpr SimTime kPollGap = ns(500);  // host loop between empty polls

  netmodels::TcpStack& stack_;
  sim::Process& proc_;
  u32 size_;
  // Per-source: size of the frame at the stream's head, read from its
  // envelope (0 until one has arrived).
  std::vector<usize> want_;
  // stack_.frames_absorbed() at the last scan that found no whole frame;
  // 0 before any frame, when every stream is empty.
  u64 idle_at_ = 0;
};

}  // namespace scrnet::scrmpi
