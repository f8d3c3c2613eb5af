// RDMA-capable NIC model (VIA / early InfiniBand class hardware) -- the
// device the MPICH2-over-InfiniBand design in PAPERS.md (arXiv cs/0310059)
// assumes: remote DMA writes into registered memory, completion queues,
// and explicit (costly) memory registration.
//
// Two personalities on one fabric:
//   * two-sided transmit()/rx() frames, like the other fabrics -- used by
//     the channel's eager path;
//   * one-sided rdma_put(): the NIC DMAs payload bytes straight into a
//     remote *registered* buffer (no rx mailbox, no receiver software on
//     the data path) and raises a completion-queue event at the sender
//     once the last byte is acknowledged.
//
// Registration pins pages and mints an rkey; a put whose rkey was
// deregistered before arrival is dropped and counted (rkey_miss), which is
// what makes receiver-side teardown after a timeout safe.
#pragma once

#include <span>

#include "netmodels/fabric.h"

namespace scrnet::netmodels {

struct RdmaConfig {
  u32 mtu = 2048;                   // max payload per wire frame

  static constexpr double mbits_per_s = 8000.0;   // 8 Gb/s link (IB 4X-era data rate)
  static constexpr u32 header_bytes = 30;         // LRH + BTH + RETH + CRCs
  static constexpr SimTime propagation = ns(250);
  static constexpr SimTime switch_latency = ns(200);
  static constexpr SimTime doorbell = ns(400);          // WQE build + doorbell PIO write
  static constexpr SimTime completion_delay = ns(500);  // last-byte ack -> CQE visible
  static constexpr SimTime cq_poll = ns(150);           // one CQ poll by host software
  static constexpr SimTime reg_fixed = us(10);          // registration syscall + pinning
  static constexpr SimTime reg_per_page = ns(300);      // per-4K-page pinning cost
  // The sender gives up waiting for its CQE after this long (a lost chunk
  // means RC retries were exhausted).
  static constexpr SimTime retry_timeout = ms(2);
};

/// Completion-queue event, delivered to the *initiating* host's CQ.
struct CqEvent {
  u64 wr_id = 0;   // work-request id the initiator chose
  u32 rkey = 0;    // region the operation targeted
  u32 bytes = 0;   // payload bytes moved
};

class RdmaFabric final : public Fabric {
 public:
  RdmaFabric(sim::Simulation& sim, u32 hosts, RdmaConfig cfg = {});

  u32 mtu_payload() const override { return cfg_.mtu; }

  /// Two-sided frame path (eager packets, FIN): same wormhole occupancy
  /// model as the Myrinet fabric, ending in rx(dst).
  void transmit(Frame f) override;

  /// Pin `region` on `host` and mint an rkey for remote writes into it.
  /// The span must stay valid until deregister().
  u32 register_region(u32 host, std::span<u8> region);
  void deregister(u32 rkey);

  /// One-sided RDMA write: DMA `payload` into (rkey, offset) on the target
  /// host, chunked at the MTU. Returns immediately (NIC-executed); a
  /// CqEvent {wr_id, rkey, bytes} lands in cq(src_host) completion_delay
  /// after the last chunk arrives. A chunk dropped by the fault hook kills
  /// the CQE (RC retry exhaustion -> the initiator's bounded wait fires);
  /// a put racing a deregister is dropped and counted in rkey_misses().
  void rdma_put(u32 src_host, u32 rkey, u32 offset,
                std::span<const u8> payload, u64 wr_id);

  sim::Mailbox<CqEvent>& cq(u32 host) { return *cq_[host]; }

  u64 puts() const { return puts_.get(); }
  u64 put_bytes() const { return put_bytes_.get(); }
  u64 rkey_misses() const { return rkey_miss_.get(); }
  u64 registrations() const { return regs_.get(); }

 private:
  struct Region {
    u32 host = 0;
    u8* base = nullptr;
    usize len = 0;
    bool live = false;
  };
  struct PutOp {
    u32 src = 0;
    u32 rkey = 0;
    u64 wr_id = 0;
    u32 bytes = 0;
    u32 remaining = 0;  // chunks still in flight
    bool failed = false;
  };

  /// Occupancy-model a frame of `payload_bytes` from src to dst; returns
  /// the arrival instant (shared busy state with transmit()).
  SimTime schedule_wire(u32 src, u32 dst, usize payload_bytes);

  RdmaConfig cfg_;
  std::vector<std::unique_ptr<sim::Mailbox<CqEvent>>> cq_;
  std::vector<Region> regions_;  // rkey - 1 indexes this table
  Counter puts_, put_bytes_, rkey_miss_, regs_;
};

}  // namespace scrnet::netmodels
