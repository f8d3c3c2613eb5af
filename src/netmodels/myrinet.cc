#include "netmodels/myrinet.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace scrnet::netmodels {

void MyrinetFabric::transmit(Frame f) {
  using C = MyrinetConfig;
  assert(f.src < hosts_ && f.dst < hosts_);
  assert(f.payload.size() <= C::mtu);
  const SimTime wire = wire_time_bits(
      (static_cast<u64>(f.payload.size()) + C::header_bytes) * 8, C::mbits_per_s);

  // Wormhole cut-through: the head flit reaches the output port after the
  // routing decision; the tail follows one wire time later. If the output
  // port is busy the worm stalls in place until it frees.
  const SimTime arrive = cross_switch(f.src, f.dst, wire,
                                      C::propagation + C::switch_latency,
                                      C::propagation);
  deliver_at(arrive, std::move(f));
}

void MyrinetApi::send(sim::Process& p, u32 dst, std::span<const u8> payload) {
  // A zero-byte message still occupies one (dummy-byte) frame on the wire.
  static constexpr u8 kDummy = 0;
  std::span<const u8> data = payload.empty() ? std::span<const u8>(&kDummy, 1) : payload;
  usize off = 0;
  while (off < data.size()) {
    const usize n = std::min<usize>(data.size() - off, fabric_.mtu_payload());
    p.delay(MyrinetApiCosts::send_fixed +
            static_cast<SimTime>(n) * MyrinetApiCosts::per_byte_send);
    Frame f;
    f.src = host_;
    f.dst = dst;
    f.payload.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
                     data.begin() + static_cast<std::ptrdiff_t>(off + n));
    fabric_.transmit(std::move(f));
    off += n;
  }
}

void MyrinetApi::recv(sim::Process& p, u32 src, std::span<u8> out, usize nbytes) {
  assert(out.size() >= nbytes);
  const usize need = std::max<usize>(nbytes, 1);  // dummy byte for 0-byte msgs
  auto& buf = pending_[src];
  while (buf.size() < need) {
    Frame f = fabric_.rx(host_).pop(p);
    p.delay(MyrinetApiCosts::recv_fixed +
            static_cast<SimTime>(f.payload.size()) * MyrinetApiCosts::per_byte_recv);
    auto& dst_buf = pending_[f.src];
    dst_buf.insert(dst_buf.end(), f.payload.begin(), f.payload.end());
  }
  if (nbytes > 0) std::memcpy(out.data(), buf.data(), nbytes);
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(need));
}

}  // namespace scrnet::netmodels
