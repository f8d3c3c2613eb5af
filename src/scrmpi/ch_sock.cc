#include "scrmpi/ch_sock.h"

#include <cstring>
#include <utility>

namespace scrnet::scrmpi {

Status SockChannel::send_packet(u32 dst, const PktHeader& hdr,
                                std::span<const u8> payload) {
  // The stack buffers and never blocks; a partitioned path fails at the
  // receiver (the stream goes silent), surfaced by the ADI's op timeout.
  stack_.send(proc_, dst, frame_packet(hdr, payload));
  return Status::Ok();
}

std::optional<Packet> SockChannel::poll_packet() {
  stack_.try_absorb(proc_);
  // Only an absorbed frame adds stream bytes, and peek() costs no virtual
  // time: a scan that found nothing finds nothing again until one lands.
  const u64 absorbed = stack_.frames_absorbed();
  if (absorbed == idle_at_) return std::nullopt;
  // Note: src == rank() is a valid stream too (MPI self-sends loop back
  // through the fabric).
  for (u32 src = 0; src < size_; ++src) {
    if (want_[src] == 0) {
      // Read the frame's length from the envelope at this stream's head.
      u8 hdr_bytes[kHeaderBytes];
      if (!stack_.peek(src, hdr_bytes)) continue;
      u32 words[kHeaderWords];
      std::memcpy(words, hdr_bytes, kHeaderBytes);
      want_[src] = kHeaderBytes + decode_header(words).len;
    }
    if (stack_.buffered(src) < want_[src]) continue;
    // Whole frame present: consume it. Its length came from its own
    // envelope, so it always unframes.
    std::vector<u8> frame(want_[src]);
    stack_.consume(proc_, src, frame, want_[src]);
    want_[src] = 0;
    return unframe_packet(std::move(frame));
  }
  idle_at_ = absorbed;
  return std::nullopt;
}

}  // namespace scrnet::scrmpi
