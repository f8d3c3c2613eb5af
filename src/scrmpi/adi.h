// The Abstract Device Interface layer: request objects, matching queues
// (posted + unexpected), the eager/rendezvous protocols, and the
// progress engine that drains the channel device.
//
// This mirrors MPICH's ADI-over-channel-interface structure the paper
// builds on. Software overheads of each layer are charged through
// LayerCosts -- the paper's Figure 1 shows MPI adding a near-constant
// ~37 us over the raw BBP API, and its Section 7 attributes much of it to
// the channel interface copy; both live here as explicit constants.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "scrmpi/channel.h"
#include "scrmpi/types.h"

namespace scrnet::scrmpi {

/// CPU cost of each MPICH-style software layer, charged via the device.
/// Defaults are calibrated so MPI-over-BBP measures ~44 us for a 0-byte
/// one-way send (paper Figure 1) on the simulated testbed. The fields are
/// the dials abl_channel_interface, fault plans and the rendezvous tests
/// turn; the static members are calibration that no experiment moves.
struct LayerCosts {
  SimTime adi_dispatch = us(4);   // ADI protocol selection + envelope build
  SimTime channel_pack = us(4);   // channel packetization fixed cost
  // Per-byte pack/unpack costs are owned by the channel *device*
  // (ChannelDevice::pack_cost / unpack_cost); this factor scales them --
  // the "remove the channel interface" ablation turns it down.
  double per_byte_scale = 1.0;
  // Bounded wait for every blocking call (wait, waitany, probe and the
  // native-multicast collective waits): once one has waited this much
  // virtual time it gives up -- counted in op_timeouts() -- instead of
  // spinning forever. A timed-out rendezvous request is parked as a
  // zombie (its id is never recycled) so a late CTS/Data is dropped, not
  // mis-matched. 0 = wait forever (the default -- the paper's blocking
  // semantics).
  SimTime op_timeout = 0;
  // Cap on the eager/rendezvous switch point: payloads above
  // min(device eager_limit, eager_cap) go rendezvous. 0 (the default)
  // defers to the device; the Engine constructor reads the
  // SCRNET_RNDV_EAGER_MAX environment knob into this field when it is 0,
  // so CI can force the rendezvous path across a whole run (an explicit
  // nonzero value here always wins over the environment).
  u32 eager_cap = 0;

  static constexpr SimTime binding = us(4);          // MPI_* argument/handle processing
  static constexpr SimTime request_alloc = ns(5500); // request creation bookkeeping
  static constexpr SimTime match = us(5);            // matching-queue search per arrival
  static constexpr SimTime complete = us(5);         // completion + status fill
  static constexpr SimTime probe = us(2);
  // Native-multicast collective bookkeeping (thin wrapper onto bbp_Mcast).
  static constexpr SimTime coll_fast = us(1);
};

class Engine {
 public:
  explicit Engine(ChannelDevice& dev, LayerCosts costs = {});

  u32 rank() const { return dev_.rank(); }
  u32 size() const { return dev_.size(); }
  ChannelDevice& device() { return dev_; }

  // -- point to point ------------------------------------------------------
  Request isend(u32 dst, u16 ctx, i32 tag, std::span<const u8> data);
  Request irecv(i32 src, u16 ctx, i32 tag, std::span<u8> buf);
  MpiStatus wait(Request r);
  std::optional<MpiStatus> test(Request r);
  /// Wait until any valid request in rs completes; returns its index and
  /// status and invalidates it (like MPI_Waitany). When op_timeout expires
  /// first, returns index rs.size() with err = kTimedOut and leaves every
  /// request valid.
  std::pair<usize, MpiStatus> waitany(std::span<Request> rs);
  MpiStatus probe(i32 src, u16 ctx, i32 tag);
  std::optional<MpiStatus> iprobe(i32 src, u16 ctx, i32 tag);

  // -- progress ------------------------------------------------------------
  /// Drain every packet the device currently has; true if any arrived.
  bool progress();

  // -- native-multicast collective transport -------------------------------
  /// Single-step multicast of a collective packet to world ranks `dsts`.
  void coll_mcast(std::span<const u32> dsts, u16 ctx, PktKind kind, u32 aux,
                  std::span<const u8> data);
  /// Send a collective packet point-to-point (barrier arrival etc.).
  void coll_send(u32 dst, u16 ctx, PktKind kind, u32 aux,
                 std::span<const u8> data);
  /// Block until the next kCollData packet of broadcast number `bcast`
  /// from `root` on `ctx` (the root's count, carried in aux); returns its
  /// payload. Chunks of an older broadcast, which arrived after their
  /// receiver gave up on it, are dropped as stale; newer ones stay queued.
  /// nullopt when op_timeout expired first.
  std::optional<std::vector<u8>> coll_wait_data(u16 ctx, u32 root, u32 bcast);
  /// Block until `n` kCollBarrier packets with `epoch` arrived on `ctx`;
  /// false when op_timeout expired first.
  bool coll_wait_arrivals(u16 ctx, u32 epoch, u32 n);
  /// Block until a kCollRelease with >= `epoch` was seen on `ctx`; false
  /// when op_timeout expired first.
  bool coll_wait_release(u16 ctx, u32 epoch);

  // -- statistics ----------------------------------------------------------
  u64 packets_handled() const { return packets_handled_; }
  usize unexpected_depth() const { return unexpected_.size(); }
  /// Blocking waits that gave up at op_timeout.
  u64 op_timeouts() const { return timeouts_; }
  /// Packets referencing a dead (timed-out) or mismatched request, and
  /// bcast chunks of a timed-out bcast, dropped.
  u64 stale_packets() const { return stale_packets_; }
  /// Undecodable packets (unknown kind / bad request index, or frames the
  /// device could not reassemble), dropped.
  u64 malformed_packets() const {
    return malformed_packets_ + dev_.dropped_frames();
  }
  /// Rendezvous protocol traffic (docs/adi.md "Counters").
  u64 rndv_rts() const { return rndv_rts_; }
  u64 rndv_cts() const { return rndv_cts_; }
  u64 rndv_puts() const { return rndv_put_; }
  u64 rndv_fins() const { return rndv_fin_; }
  /// Payload bytes that bypassed the channel-interface copy entirely
  /// (sender-side puts into receiver-granted placements).
  u64 zero_copy_bytes() const { return zero_copy_bytes_; }
  /// The switch point actually in force (device limit capped by
  /// LayerCosts::eager_cap / SCRNET_RNDV_EAGER_MAX).
  u32 effective_eager_limit() const;

 private:
  struct Req {
    // kZombie: a rendezvous request whose wait timed out while a
    // CTS/Data/FIN naming its id may still be in flight; parked so the id
    // is not recycled, reaped when the late packet (if any) arrives.
    enum class State : u8 { kFree, kSendWaitCts, kRecvPosted, kRecvWaitData,
                            kRecvWaitFin, kZombie, kDone };
    State state = State::kFree;
    // Send side (rendezvous): a *view* of the caller's payload, retained
    // until the CTS arrives. MPI semantics already require the buffer to
    // stay live until wait(), so the ADI no longer stages a copy of it.
    std::span<const u8> send_view;
    u32 dst = 0;
    // Recv side.
    i32 want_src = kAnySource;
    i32 want_tag = kAnyTag;
    u16 ctx = 0;
    std::span<u8> buf;
    // Zero-copy rendezvous: the placement granted in our CTS (valid in
    // state kRecvWaitFin; released on completion or timeout).
    RndvPlacement placement;
    MpiStatus status;
  };

  struct Unexpected {
    PktHeader hdr;            // kShort: payload present; kRndvRts: not
    std::vector<u8> payload;
  };

  /// Apply the LayerCosts scale to a device per-byte cost.
  SimTime scaled(SimTime device_cost) const {
    return static_cast<SimTime>(static_cast<double>(device_cost) *
                                costs_.per_byte_scale);
  }

  u32 alloc_req();
  void free_req(u32 idx);
  bool match(i32 src, u16 ctx, i32 tag, const PktHeader& h) const {
    return ctx == h.ctx && (src == kAnySource || static_cast<u32>(src) == h.src) &&
           (tag == kAnyTag || tag == h.tag);
  }
  bool match(const Req& r, const PktHeader& h) const {
    return match(r.want_src, r.ctx, r.want_tag, h);
  }
  void handle(Packet pkt);
  /// The request a CTS, DATA or FIN names (hdr.aux) if it is in state
  /// `want`, else null: an id out of range counts as malformed, any other
  /// state as stale, and a zombie is reaped.
  Req* reply_target(const PktHeader& h, Req::State want);
  /// A kShort or RTS matched to posted request `idx`: complete the
  /// receive, or grant the rendezvous.
  void arrive(u32 idx, const PktHeader& hdr, std::span<const u8> payload);
  void complete_recv_into(u32 req_idx, const PktHeader& hdr,
                          std::span<const u8> payload);
  /// Answer an RTS matched to posted request `idx`: try to reserve a
  /// zero-copy placement (put-capable devices) and send the CTS -- with the
  /// placement as payload on success, empty for the copy path.
  void grant_rendezvous(u32 idx, const PktHeader& rts,
                        std::span<const u8> rts_payload);
  /// Every wait: spin on ready() through the device's hook at `site`;
  /// progress_until's ready() drains the device until done(). False,
  /// counting one op_timeouts(), once costs_.op_timeout passed first.
  template <typename Ready>
  bool block_until(const char* site, Ready ready);
  template <typename Done>
  bool progress_until(const char* site, Done done);
  /// Tear down a request whose wait timed out (unlink or zombie it) and
  /// build the kTimedOut status to hand the caller.
  MpiStatus timeout_request(u32 idx);
  MpiStatus status_of(const PktHeader& h) const {
    MpiStatus st;
    st.source = static_cast<i32>(h.src);
    st.tag = h.tag;
    st.count_bytes = h.len;
    return st;
  }

  ChannelDevice& dev_;
  LayerCosts costs_;
  std::vector<Req> reqs_;
  std::vector<u32> free_reqs_;
  std::deque<u32> posted_;          // posted irecv requests, FIFO
  std::deque<Unexpected> unexpected_;

  // Collective state.
  struct CollChunk {
    u32 bcast;  // the root's broadcast count (header aux)
    std::vector<u8> data;
  };
  std::map<std::pair<u16, u32>, std::deque<CollChunk>> collq_;        // (ctx,root)
  std::map<std::pair<u16, u32>, u32> barrier_count_;                  // (ctx,epoch)
  std::map<u16, u32> release_epoch_;                                  // ctx -> max

  u64 packets_handled_ = 0;
  u64 timeouts_ = 0;
  u64 stale_packets_ = 0;
  u64 malformed_packets_ = 0;
  u64 rndv_rts_ = 0;
  u64 rndv_cts_ = 0;
  u64 rndv_put_ = 0;
  u64 rndv_fin_ = 0;
  u64 zero_copy_bytes_ = 0;
};

}  // namespace scrnet::scrmpi
