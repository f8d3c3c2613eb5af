#include "scrmpi/ch_bbp.h"

#include <algorithm>
#include <utility>

namespace scrnet::scrmpi {

Status BbpChannel::send_packet(u32 dst, const PktHeader& hdr,
                               std::span<const u8> payload) {
  return ep_.send(dst, frame_packet(hdr, payload));
}

Status BbpChannel::mcast_packet(std::span<const u32> dsts, const PktHeader& hdr,
                                std::span<const u8> payload) {
  return ep_.mcast(dsts, frame_packet(hdr, payload));
}

Result<RndvPlacement> BbpChannel::rndv_reserve(u32 bytes, std::span<u8> dest) {
  (void)dest;  // data lands in replicated memory, read out on FIN
  Result<u32> addr = ep_.rndv_reserve(bytes);
  if (!addr.ok()) return addr.status();
  RndvPlacement pl;
  pl.addr = addr.value();  // absolute SCRAMNet word address
  pl.bytes = bytes;
  return pl;
}

Status BbpChannel::rndv_put(u32 dst, const RndvPlacement& placement,
                            std::span<const u8> payload,
                            const PktHeader& fin_hdr) {
  // Payload words first, FIN message second: both leave through my port in
  // program order and SCRAMNet delivers one sender's writes in order, so
  // the receiver seeing the FIN implies the payload words have landed.
  ep_.rndv_put(static_cast<u32>(placement.addr), payload);
  return send_packet(dst, fin_hdr, {});
}

Status BbpChannel::rndv_complete(const RndvPlacement& placement,
                                 std::span<u8> buf, u32 len) {
  // The payload sits in replicated SCRAMNet memory; MPI semantics want it
  // in the user's host buffer, so the receiver pays one PIO block read --
  // but no channel frame, no staging copy, no per-byte unpack pass.
  return ep_.rndv_read(static_cast<u32>(placement.addr), buf, len);
}

void BbpChannel::rndv_release(const RndvPlacement& placement) {
  ep_.rndv_release(static_cast<u32>(placement.addr), placement.bytes);
}

std::optional<Packet> BbpChannel::poll_packet() {
  // A ring link that heals mid-message delivers only some of a message's
  // words, so under fault injection a frame can arrive torn, truncated or
  // shorter than the envelope. Count and drop it, as the ADI does with
  // undecodable packets; the operation it carried then times out. Every
  // recv consumes the message msg_avail announced, so the loop ends.
  // Each frame is read into a buffer of its own queued length, capped at
  // kHeaderBytes + max_message_bytes(), above anything a sender can post:
  // an oversize announced length still reads as truncated and is dropped.
  const u32 max_frame = kHeaderBytes + ep_.layout().max_message_bytes();
  while (const auto src = ep_.msg_avail()) {
    std::vector<u8> buf(std::min(*ep_.peek_len(*src), max_frame));
    const auto r = ep_.recv(*src, buf);
    std::optional<Packet> pkt;
    if (r.ok() && !r.value().truncated) pkt = unframe_packet(std::move(buf));
    if (pkt) return pkt;
    ++dropped_frames_;
  }
  return std::nullopt;
}

}  // namespace scrnet::scrmpi
