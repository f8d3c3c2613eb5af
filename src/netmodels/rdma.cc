#include "netmodels/rdma.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

namespace scrnet::netmodels {

RdmaFabric::RdmaFabric(sim::Simulation& sim, u32 hosts, RdmaConfig cfg)
    : Fabric(sim, hosts), cfg_(cfg) {
  cq_.reserve(hosts);
  for (u32 h = 0; h < hosts; ++h)
    cq_.push_back(std::make_unique<sim::Mailbox<CqEvent>>(sim));
}

SimTime RdmaFabric::schedule_wire(u32 src, u32 dst, usize payload_bytes) {
  using C = RdmaConfig;
  const SimTime wire = wire_time_bits(
      (static_cast<u64>(payload_bytes) + C::header_bytes) * 8, C::mbits_per_s);
  // Cut-through: head reaches the output port after the routing decision,
  // stalls there if the port is draining an earlier worm.
  return cross_switch(src, dst, wire, C::propagation + C::switch_latency,
                      C::propagation);
}

void RdmaFabric::transmit(Frame f) {
  assert(f.src < hosts_ && f.dst < hosts_);
  assert(f.payload.size() <= cfg_.mtu);
  const SimTime arrive = schedule_wire(f.src, f.dst, f.payload.size());
  deliver_at(arrive, std::move(f));
}

u32 RdmaFabric::register_region(u32 host, std::span<u8> region) {
  assert(host < hosts_);
  regions_.push_back(Region{host, region.data(), region.size(), true});
  regs_.inc();
  return static_cast<u32>(regions_.size());  // rkey = index + 1; 0 invalid
}

void RdmaFabric::deregister(u32 rkey) {
  if (rkey == 0 || rkey > regions_.size()) return;
  regions_[rkey - 1].live = false;
}

void RdmaFabric::rdma_put(u32 src_host, u32 rkey, u32 offset,
                          std::span<const u8> payload, u64 wr_id) {
  assert(src_host < hosts_);
  assert(rkey >= 1 && rkey <= regions_.size());
  const u32 dst_host = regions_[rkey - 1].host;

  auto op = std::make_shared<PutOp>();
  op->src = src_host;
  op->rkey = rkey;
  op->wr_id = wr_id;
  op->bytes = static_cast<u32>(payload.size());
  op->remaining = std::max<u32>(
      1, static_cast<u32>((payload.size() + cfg_.mtu - 1) / cfg_.mtu));
  puts_.inc();
  put_bytes_.inc(payload.size());

  usize off = 0;
  do {  // a zero-byte put still needs one wire op to generate its CQE
    const usize n = std::min<usize>(payload.size() - off, cfg_.mtu);
    SimTime arrive = schedule_wire(src_host, dst_host, n);
    // Fault plans see put chunks like any other frame (payload content is
    // never inspected by hooks, so no copy is made for the verdict).
    if (fault_ != nullptr) {
      Frame probe;
      probe.src = src_host;
      probe.dst = dst_host;
      const FaultHook::Verdict v = fault_->on_frame(probe, arrive);
      if (v.drop) {
        // RC retries exhaust without the ack: this put never completes, so
        // its CQE must not fire (the initiator's bounded wait surfaces it).
        dropped_.inc();
        op->failed = true;
        --op->remaining;
        off += n;
        continue;
      }
      arrive += v.extra_delay;
    }
    const u8* chunk_base = payload.empty() ? nullptr : payload.data() + off;
    const u32 chunk_off = offset + static_cast<u32>(off);
    sim_.post_at(arrive, [this, op, chunk_base, chunk_off, n] {
      const Region& r = regions_[op->rkey - 1];
      if (!r.live) {
        // Raced a deregister (receiver tore down after a timeout): the NIC
        // rejects the write; nothing lands in freed memory.
        rkey_miss_.inc();
        op->failed = true;
      } else if (n > 0) {
        assert(static_cast<usize>(chunk_off) + n <= r.len);
        std::memcpy(r.base + chunk_off, chunk_base, n);
        delivered_.inc();
        bytes_.inc(n);
      } else {
        delivered_.inc();
      }
      if (--op->remaining == 0 && !op->failed) {
        sim_.post_at(sim_.now() + RdmaConfig::completion_delay, [this, op] {
          cq_[op->src]->push(CqEvent{op->wr_id, op->rkey, op->bytes});
        });
      }
    });
    off += n;
  } while (off < payload.size());
}

}  // namespace scrnet::netmodels
