#include "scrmpi/ch_rdma.h"

#include <cassert>
#include <utility>

namespace scrnet::scrmpi {

using netmodels::RdmaConfig;

Status RdmaChannel::send_packet(u32 dst, const PktHeader& hdr,
                                std::span<const u8> payload) {
  // Eager packets fit by eager_limit(); a rendezvous copy-path DATA packet
  // (a grant that reserved nothing, e.g. a zero-length receive) may not.
  if (kHeaderBytes + payload.size() > fabric_.mtu_payload())
    return Status::InvalidArg("ch_rdma: packet exceeds frame MTU");
  proc_.delay(RdmaConfig::doorbell);
  fabric_.transmit({host_, dst, frame_packet(hdr, payload)});
  return Status::Ok();
}

std::optional<Packet> RdmaChannel::poll_packet() {
  auto f = fabric_.rx(host_).try_pop();
  if (!f) return std::nullopt;
  // The fabric delivers or drops whole frames, and every frame is one
  // send_packet: nothing arrives torn.
  std::optional<Packet> pkt = unframe_packet(std::move(f->payload));
  assert(pkt);
  return pkt;
}

Result<RndvPlacement> RdmaChannel::rndv_reserve(u32 bytes, std::span<u8> dest) {
  // Pin the posted user buffer itself: the NIC will DMA payload bytes
  // directly into it. Registration is the (real, charged) price of the
  // zero-copy path; amortized over a large message it is cheap.
  const u32 pages = (bytes + 4095) / 4096;
  proc_.delay(RdmaConfig::reg_fixed + RdmaConfig::reg_per_page * pages);
  const u32 rkey = fabric_.register_region(host_, dest.first(bytes));
  RndvPlacement pl;
  pl.addr = 0;  // offset within the registered region
  pl.bytes = bytes;
  pl.rkey = rkey;
  return pl;
}

Status RdmaChannel::rndv_put(u32 dst, const RndvPlacement& placement,
                             std::span<const u8> payload,
                             const PktHeader& fin_hdr) {
  const u64 wr = next_wr_++;
  proc_.delay(RdmaConfig::doorbell);
  fabric_.rdma_put(host_, placement.rkey, static_cast<u32>(placement.addr),
                   payload, wr);
  // Wait for my CQE before sending FIN: the completion proves the last
  // byte was acknowledged, so FIN-after-data holds even though the FIN
  // frame races nothing. The engine runs one fiber per rank, so this put
  // is the only one outstanding; a bounded wait surfaces lost chunks
  // (fault-injected drops = RC retry exhaustion) as kTimedOut.
  for (;;) {
    const std::optional<netmodels::CqEvent> ev =
        fabric_.cq(host_).pop_for(proc_, RdmaConfig::retry_timeout);
    if (!ev)
      return Status::TimedOut("ch_rdma: put completion never arrived");
    proc_.delay(RdmaConfig::cq_poll);
    if (ev->wr_id == wr) break;  // stale CQE from a timed-out earlier put
  }
  return send_packet(dst, fin_hdr, {});
}

Status RdmaChannel::rndv_complete(const RndvPlacement& placement,
                                  std::span<u8> buf, u32 len) {
  (void)placement;
  (void)buf;
  (void)len;
  // The NIC already landed the payload in the registered user buffer;
  // completion is one CQ/teardown poll, independent of message size --
  // this is the whole point of the rendezvous path on real RDMA hardware.
  proc_.delay(RdmaConfig::cq_poll);
  return Status::Ok();
}

void RdmaChannel::rndv_release(const RndvPlacement& placement) {
  fabric_.deregister(placement.rkey);
}

}  // namespace scrnet::scrmpi
