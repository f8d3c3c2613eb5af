#include "scrmpi/ch_hybrid.h"

#include <cstring>
#include <stdexcept>

namespace scrnet::scrmpi {

Status HybridChannel::send_packet(u32 dst, const PktHeader& hdr,
                                  std::span<const u8> payload) {
  if (is_collective(hdr.kind)) {
    Status st = low_.send_packet(dst, hdr, payload);
    if (st.ok()) ++low_pkts_;
    return st;
  }
  // An RTS is a 4-byte control packet standing in for a large transfer:
  // route it by the message length it announces, not its own frame size.
  // Otherwise every rendezvous send -- whatever rail its data will ride --
  // lands on the low leg, and a burst of isends can fill the billboard's
  // slot ring in both directions before either peer reaches a progress
  // call (the classic eager flow-control deadlock). Keeping control
  // traffic on its payload's rail keeps per-rail backpressure
  // proportional to the traffic actually headed there.
  const usize route_bytes =
      hdr.kind == PktKind::kRndvRts ? rts_msg_len(payload) : payload.size();
  // Point-to-point: preamble with the per-destination sequence number so
  // the receiver can restore cross-network ordering.
  std::vector<u8> wrapped(kPreambleBytes + payload.size());
  const u32 seq = next_seq_[dst]++;
  std::memcpy(wrapped.data(), &seq, 4);
  u32 magic = kMagic;
  std::memcpy(wrapped.data() + 4, &magic, 4);
  if (!payload.empty())
    std::memcpy(wrapped.data() + kPreambleBytes, payload.data(), payload.size());

  PktHeader h = hdr;
  h.len = static_cast<u32>(wrapped.size());
  // The sequence number stays consumed even if the transmit fails: the
  // receiver's stash skips a hole only when the whole path is already
  // degraded, and re-using the seq for a later packet would corrupt
  // ordering for good.
  if (route_bytes <= threshold_) {
    Status st = low_.send_packet(dst, h, wrapped);
    if (st.ok()) ++low_pkts_;
    return st;
  }
  Status st = high_.send_packet(dst, h, wrapped);
  if (st.ok()) ++high_pkts_;
  return st;
}

u32 HybridChannel::unwrap(Packet& pkt) {
  u32 seq = 0, magic = 0;
  if (pkt.payload.size() >= kPreambleBytes) {
    std::memcpy(&seq, pkt.payload.data(), 4);
    std::memcpy(&magic, pkt.payload.data() + 4, 4);
  }
  if (magic != kMagic) throw std::runtime_error("ch_hybrid: runt or bad preamble");
  pkt.payload.erase(pkt.payload.begin(),
                    pkt.payload.begin() + kPreambleBytes);
  pkt.hdr.len -= kPreambleBytes;
  return seq;
}

std::optional<Packet> HybridChannel::pop_ready(u32 src) {
  auto& stash = stash_[src];
  auto it = stash.find(expect_seq_[src]);
  if (it == stash.end()) return std::nullopt;
  Packet pkt = std::move(it->second);
  stash.erase(it);
  ++expect_seq_[src];
  return pkt;
}

std::optional<Packet> HybridChannel::poll_packet() {
  // Release any stashed packet that became in-order first.
  for (u32 src = 0; src < size(); ++src) {
    if (auto pkt = pop_ready(src)) return pkt;
  }
  // Drain both sub-devices; collectives pass straight through, p2p packets
  // go through the sequencing stash.
  for (ChannelDevice* dev : {&low_, &high_}) {
    while (auto pkt = dev->poll_packet()) {
      if (is_collective(pkt->hdr.kind)) return pkt;
      const u32 src = pkt->hdr.src;
      const u32 seq = unwrap(*pkt);
      if (seq == expect_seq_[src]) {
        ++expect_seq_[src];
        return pkt;
      }
      stash_[src].emplace(seq, std::move(*pkt));
    }
  }
  // A sub-device poll may have filled the stash in order.
  for (u32 src = 0; src < size(); ++src) {
    if (auto pkt = pop_ready(src)) return pkt;
  }
  return std::nullopt;
}

}  // namespace scrnet::scrmpi
