#include "netmodels/tcp.h"

#include <algorithm>
#include <cassert>

namespace scrnet::netmodels {

void TcpStack::send(sim::Process& p, u32 dst, std::span<const u8> data) {
  assert(dst < fabric_.hosts());
  p.delay(cfg_.send_fixed);
  const u32 seg_cap = mss();
  usize off = 0;
  do {
    const usize n = std::min<usize>(data.size() - off, seg_cap);
    // Per-segment CPU: header build + copy + checksum. Charged before the
    // NIC gets the segment; segment k+1's CPU overlaps segment k's wire
    // time, which is what pipelines multi-MSS messages.
    p.delay(cfg_.per_segment_send +
            static_cast<SimTime>(n) * (cfg_.per_byte_copy + cfg_.per_byte_csum));
    Frame f;
    f.src = host_;
    f.dst = dst;
    f.payload.resize(TcpConfig::header_bytes + n);  // header bytes are modeled, zeroed
    if (n) std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(off), n,
                       f.payload.begin() + TcpConfig::header_bytes);
    fabric_.transmit(std::move(f));
    off += n;
  } while (off < data.size());
}

void TcpStack::absorb_frame(sim::Process& p) {
  Frame f = fabric_.rx(host_).pop(p);
  assert(f.payload.size() >= TcpConfig::header_bytes);
  const usize n = f.payload.size() - TcpConfig::header_bytes;
  p.delay(cfg_.per_segment_recv +
          static_cast<SimTime>(n) * (cfg_.per_byte_copy + cfg_.per_byte_csum));
  auto& s = streams_[f.src];
  s.insert(s.end(), f.payload.begin() + TcpConfig::header_bytes, f.payload.end());
  ++frames_absorbed_;
}

usize TcpStack::try_absorb(sim::Process& p) {
  usize n = 0;
  while (!fabric_.rx(host_).empty()) {
    absorb_frame(p);
    ++n;
  }
  return n;
}

bool TcpStack::peek(u32 src, std::span<u8> out) const {
  const auto& s = streams_[src];
  if (s.size() < out.size()) return false;
  std::copy_n(s.begin(), out.size(), out.begin());
  return true;
}

void TcpStack::consume(sim::Process& p, u32 src, std::span<u8> out, usize nbytes) {
  auto& s = streams_[src];
  assert(s.size() >= nbytes && out.size() >= nbytes);
  std::copy_n(s.begin(), nbytes, out.begin());
  s.erase(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(nbytes));
  p.delay(cfg_.recv_fixed);
}

void TcpStack::recv(sim::Process& p, u32 src, std::span<u8> out, usize nbytes) {
  assert(src < fabric_.hosts());
  assert(out.size() >= nbytes);
  auto& s = streams_[src];
  while (s.size() < nbytes) absorb_frame(p);
  // Wakeup + protocol receive path + return from the syscall: charged once
  // the data is there (a blocked receiver pays this after the interrupt,
  // not while idling).
  p.delay(cfg_.recv_fixed);
  std::copy_n(s.begin(), nbytes, out.begin());
  s.erase(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(nbytes));
}

}  // namespace scrnet::netmodels
