#include "scrmpi/adi.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "obs/trace.h"

namespace scrnet::scrmpi {

Engine::Engine(ChannelDevice& dev, LayerCosts costs) : dev_(dev), costs_(costs) {
  // CI's forced-rendezvous leg lowers the eager/rendezvous switch point for
  // a whole run via the environment; an explicit eager_cap always wins.
  if (costs_.eager_cap == 0) {
    if (const char* e = std::getenv("SCRNET_RNDV_EAGER_MAX")) {
      costs_.eager_cap = static_cast<u32>(std::strtoul(e, nullptr, 10));
    }
  }
}

u32 Engine::effective_eager_limit() const {
  const u32 dev_limit = dev_.eager_limit();
  return costs_.eager_cap > 0 ? std::min(dev_limit, costs_.eager_cap)
                              : dev_limit;
}

u32 Engine::alloc_req() {
  dev_.cpu(LayerCosts::request_alloc);
  if (!free_reqs_.empty()) {
    const u32 idx = free_reqs_.back();
    free_reqs_.pop_back();
    reqs_[idx] = Req{};
    return idx;
  }
  reqs_.emplace_back();
  return static_cast<u32>(reqs_.size() - 1);
}

void Engine::free_req(u32 idx) {
  reqs_[idx].state = Req::State::kFree;
  reqs_[idx].send_view = {};
  reqs_[idx].placement = {};
  free_reqs_.push_back(idx);
}

// ---------------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------------

Request Engine::isend(u32 dst, u16 ctx, i32 tag, std::span<const u8> data) {
  TRACE_SPAN(obs::Layer::kMpi, rank(), "adi.isend", dev_);
  const u32 idx = alloc_req();
  Req& r = reqs_[idx];
  dev_.cpu(costs_.adi_dispatch);

  PktHeader h;
  h.ctx = ctx;
  h.tag = tag;
  h.src = rank();
  h.len = static_cast<u32>(data.size());

  if (data.size() <= effective_eager_limit()) {
    // Eager: envelope + payload leave in one packet; the request is
    // complete as soon as the channel accepts it. A failed transmit (the
    // device waited out its bounded wait) completes the request with the
    // propagated error instead of hanging the caller.
    h.kind = PktKind::kShort;
    dev_.cpu(costs_.channel_pack +
             scaled(dev_.pack_cost(static_cast<u32>(data.size()))));
    const Status st = dev_.send_packet(dst, h, data);
    r.state = Req::State::kDone;
    if (!st.ok()) r.status.err = st.code();
    return Request{idx};
  }

  // Rendezvous: request-to-send now, payload when the receiver is ready.
  // hdr.len always equals the framed payload size (ch_sock relies on it);
  // the RTS therefore carries the full message length as a 4-byte payload.
  h.kind = PktKind::kRndvRts;
  h.aux = idx;  // so the CTS can find this request
  const u32 msg_len = static_cast<u32>(data.size());
  u8 len_payload[4];
  std::memcpy(len_payload, &msg_len, 4);
  h.len = 4;
  r.state = Req::State::kSendWaitCts;
  r.dst = dst;
  r.send_view = data;  // MPI keeps the buffer live until wait(): no copy
  dev_.cpu(costs_.channel_pack);
  ++rndv_rts_;
  const Status st = dev_.send_packet(dst, h, len_payload);
  if (!st.ok()) {
    r.send_view = {};
    r.state = Req::State::kDone;
    r.status.err = st.code();
  }
  return Request{idx};
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

Request Engine::irecv(i32 src, u16 ctx, i32 tag, std::span<u8> buf) {
  TRACE_SPAN(obs::Layer::kMpi, rank(), "adi.irecv", dev_);
  const u32 idx = alloc_req();
  Req& r = reqs_[idx];
  r.want_src = src;
  r.want_tag = tag;
  r.ctx = ctx;
  r.buf = buf;
  dev_.cpu(costs_.adi_dispatch);

  // Check the unexpected queue first (a message may already be here).
  dev_.cpu(LayerCosts::match);
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (!match(r, it->hdr)) continue;
    Unexpected u = std::move(*it);
    unexpected_.erase(it);
    arrive(idx, u.hdr, u.payload);
    return Request{idx};
  }
  r.state = Req::State::kRecvPosted;
  posted_.push_back(idx);
  return Request{idx};
}

void Engine::arrive(u32 idx, const PktHeader& hdr,
                    std::span<const u8> payload) {
  if (hdr.kind == PktKind::kRndvRts)
    grant_rendezvous(idx, hdr, payload);
  else
    complete_recv_into(idx, hdr, payload);
}

void Engine::grant_rendezvous(u32 idx, const PktHeader& rts,
                              std::span<const u8> rts_payload) {
  Req& r = reqs_[idx];
  // CTS carries the sender's request id in aux and ours in tag
  // (documented protocol detail); the envelope fields of the eventual
  // completion come from the RTS, recorded now.
  PktHeader cts;
  cts.kind = PktKind::kRndvCts;
  cts.ctx = rts.ctx;
  cts.src = rank();
  cts.aux = rts.aux;
  cts.tag = static_cast<i32>(idx);
  r.status = status_of(rts);
  const u32 msg_len = rts_msg_len(rts_payload);
  r.status.count_bytes = msg_len;

  // Zero-copy grant: reserve placement inside the posted buffer region and
  // ship it back as the CTS payload. Any failure (no window space, device
  // without put) silently falls back to the copy path for this message.
  u8 placement_bytes[kPlacementBytes];
  std::span<const u8> cts_payload{};
  const u32 want =
      static_cast<u32>(std::min<usize>(msg_len, r.buf.size()));
  RndvPut* put = dev_.put();
  if (put && want > 0) {
    Result<RndvPlacement> res = put->rndv_reserve(want, r.buf.first(want));
    if (res.ok()) {
      r.placement = res.value();
      r.state = Req::State::kRecvWaitFin;
      encode_placement(r.placement, placement_bytes);
      cts_payload = placement_bytes;
      cts.len = kPlacementBytes;
    }
  }
  if (cts_payload.empty()) r.state = Req::State::kRecvWaitData;
  ++rndv_cts_;
  if (const Status st = dev_.send_packet(rts.src, cts, cts_payload);
      !st.ok()) {
    if (r.state == Req::State::kRecvWaitFin) put->rndv_release(r.placement);
    r.state = Req::State::kDone;
    r.status.err = st.code();
  }
}

void Engine::complete_recv_into(u32 req_idx, const PktHeader& hdr,
                                std::span<const u8> payload) {
  Req& r = reqs_[req_idx];
  const usize n = std::min<usize>(payload.size(), r.buf.size());
  if (n) std::memcpy(r.buf.data(), payload.data(), n);
  dev_.cpu(LayerCosts::complete + scaled(dev_.unpack_cost(static_cast<u32>(n))));
  r.status = status_of(hdr);
  r.status.truncated = payload.size() > r.buf.size();
  r.state = Req::State::kDone;
}

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

bool Engine::progress() {
  bool any = false;
  while (auto pkt = dev_.poll_packet()) {
    handle(std::move(*pkt));
    any = true;
  }
  return any;
}

Engine::Req* Engine::reply_target(const PktHeader& h, Req::State want) {
  if (h.aux >= reqs_.size()) {
    ++malformed_packets_;
    return nullptr;
  }
  Req& r = reqs_[h.aux];
  if (r.state == want) return &r;
  ++stale_packets_;
  // The request's wait timed out before this reply arrived; its id was
  // parked exactly so the reply can be reaped here. A FIN finds the
  // placement already released by timeout_request.
  if (r.state == Req::State::kZombie) free_req(h.aux);
  return nullptr;
}

void Engine::handle(Packet pkt) {
  ++packets_handled_;
  const PktHeader& h = pkt.hdr;
  switch (h.kind) {
    case PktKind::kShort:
    case PktKind::kRndvRts: {
      // A torn frame can pair an RTS kind with another packet's length.
      if (h.kind == PktKind::kRndvRts && pkt.payload.size() != 4) break;
      dev_.cpu(LayerCosts::match);
      for (auto it = posted_.begin(); it != posted_.end(); ++it) {
        if (!match(reqs_[*it], h)) continue;
        const u32 idx = *it;
        posted_.erase(it);
        arrive(idx, h, pkt.payload);
        return;
      }
      unexpected_.push_back(Unexpected{h, std::move(pkt.payload)});
      return;
    }
    case PktKind::kRndvCts: {
      Req* const target = reply_target(h, Req::State::kSendWaitCts);
      if (!target) return;
      Req& r = *target;
      RndvPut* put = dev_.put();
      if (put && pkt.payload.size() == kPlacementBytes) {
        // Zero-copy grant: put the payload straight from the user buffer
        // into the receiver's placement, FIN rides behind it. No channel
        // packetization, no per-byte pack charge -- that is the win; the
        // device charges its own honest put cost (ring write / doorbell).
        const RndvPlacement pl = decode_placement(pkt.payload);
        PktHeader fin;
        fin.kind = PktKind::kRndvFin;
        fin.ctx = h.ctx;
        fin.src = rank();
        fin.len = 0;
        fin.aux = static_cast<u32>(h.tag);  // receiver's request id
        const std::span<const u8> data = r.send_view.first(
            std::min<usize>(r.send_view.size(), pl.bytes));
        const Status st = put->rndv_put(r.dst, pl, data, fin);
        ++rndv_put_;
        zero_copy_bytes_ += data.size();
        r.send_view = {};
        r.state = Req::State::kDone;
        if (!st.ok()) r.status.err = st.code();
        return;
      }
      PktHeader data_hdr;
      data_hdr.kind = PktKind::kRndvData;
      data_hdr.ctx = h.ctx;
      data_hdr.src = rank();
      data_hdr.len = static_cast<u32>(r.send_view.size());
      data_hdr.aux = static_cast<u32>(h.tag);  // receiver's request id
      dev_.cpu(costs_.channel_pack +
               scaled(dev_.pack_cost(static_cast<u32>(r.send_view.size()))));
      const Status st = dev_.send_packet(r.dst, data_hdr, r.send_view);
      r.send_view = {};
      r.state = Req::State::kDone;
      if (!st.ok()) r.status.err = st.code();
      return;
    }
    case PktKind::kRndvData: {
      Req* const target = reply_target(h, Req::State::kRecvWaitData);
      if (!target) return;
      Req& r = *target;
      const i32 keep_tag = r.status.tag;  // envelope came with the RTS
      const i32 keep_src = r.status.source;
      complete_recv_into(h.aux, h, pkt.payload);
      r.status.tag = keep_tag;
      r.status.source = keep_src;
      return;
    }
    case PktKind::kRndvFin: {
      Req* const target = reply_target(h, Req::State::kRecvWaitFin);
      if (!target) return;
      Req& r = *target;
      // The device guarantees FIN-after-data: the payload is already at the
      // placement. Make it visible in the user buffer (free for true RDMA;
      // a replicated-memory read for BBP) -- note no per-byte unpack charge
      // and no channel-interface copy.
      const u32 n = static_cast<u32>(std::min<usize>(
          std::min<usize>(r.status.count_bytes, r.buf.size()),
          r.placement.bytes));
      dev_.cpu(LayerCosts::complete);
      RndvPut* put = dev_.put();  // kRecvWaitFin: the grant came from it
      const Status st = put->rndv_complete(r.placement, r.buf, n);
      put->rndv_release(r.placement);
      ++rndv_fin_;
      r.status.truncated = r.status.count_bytes > n;
      r.state = Req::State::kDone;
      if (!st.ok()) r.status.err = st.code();
      return;
    }
    case PktKind::kCollData: {
      dev_.cpu(LayerCosts::coll_fast);
      collq_[{h.ctx, h.src}].push_back({h.aux, std::move(pkt.payload)});
      return;
    }
    case PktKind::kCollBarrier: {
      dev_.cpu(LayerCosts::coll_fast);
      ++barrier_count_[{h.ctx, h.aux}];
      return;
    }
    case PktKind::kCollRelease: {
      dev_.cpu(LayerCosts::coll_fast);
      u32& e = release_epoch_[h.ctx];
      e = std::max(e, h.aux);
      return;
    }
  }
  // Unknown packet kind, or an RTS without its 4-byte length: under fault
  // injection a corrupted or stale frame can decode to garbage; count and
  // drop rather than kill the rank.
  ++malformed_packets_;
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

template <typename Ready>
bool Engine::block_until(const char* site, Ready ready) {
  const SimTime deadline =
      costs_.op_timeout > 0 ? dev_.now() + costs_.op_timeout : 0;
  if (dev_.spin_until(site, deadline, ready)) return true;
  ++timeouts_;
  return false;
}

template <typename Done>
bool Engine::progress_until(const char* site, Done done) {
  return block_until(site, [&] {
    while (!done())
      if (!progress()) return false;
    return true;
  });
}

MpiStatus Engine::timeout_request(u32 idx) {
  Req& r = reqs_[idx];
  MpiStatus st = r.status;
  st.err = StatusCode::kTimedOut;
  if (r.state == Req::State::kRecvPosted) {
    // Never matched: nothing in flight names this request, so the id can
    // be recycled once it leaves the posted queue.
    auto it = std::find(posted_.begin(), posted_.end(), idx);
    if (it != posted_.end()) posted_.erase(it);
    free_req(idx);
    return st;
  }
  // Mid-rendezvous (kSendWaitCts, kRecvWaitData or kRecvWaitFin): a late
  // CTS/Data/FIN carrying this id may still arrive, so park it as zombie
  // (handle() reaps it) and the id is never recycled onto a live request.
  assert(r.state == Req::State::kSendWaitCts || r.state == Req::State::kRecvWaitData ||
         r.state == Req::State::kRecvWaitFin);
  if (r.state == Req::State::kRecvWaitFin) {
    // A placement is outstanding: give the window space back before
    // parking (a late FIN is then reaped without touching the dead
    // buffer). A put already in flight lands in released window memory --
    // harmless, it is never read.
    dev_.put()->rndv_release(r.placement);
    r.placement = {};
  }
  // The caller's buffer must be dropped now -- it dies with this call.
  r.state = Req::State::kZombie;
  r.send_view = {};
  r.buf = {};
  return st;
}

MpiStatus Engine::wait(Request req) {
  TRACE_SPAN(obs::Layer::kMpi, rank(), "adi.wait", dev_);
  assert(req.valid() && req.idx < reqs_.size());
  assert(reqs_[req.idx].state != Req::State::kFree && "wait on freed request");
  if (!progress_until("adi.wait",
                      [&] { return reqs_[req.idx].state == Req::State::kDone; }))
    return timeout_request(req.idx);
  const MpiStatus st = reqs_[req.idx].status;
  free_req(req.idx);
  return st;
}

std::optional<MpiStatus> Engine::test(Request req) {
  assert(req.valid() && req.idx < reqs_.size());
  progress();
  if (reqs_[req.idx].state != Req::State::kDone) return std::nullopt;
  const MpiStatus st = reqs_[req.idx].status;
  free_req(req.idx);
  return st;
}

std::pair<usize, MpiStatus> Engine::waitany(std::span<Request> rs) {
  assert(!rs.empty());
  std::pair<usize, MpiStatus> out{rs.size(), MpiStatus{}};
  const bool done = block_until("adi.waitany", [&] {
    bool any_valid = false;
    for (usize i = 0; i < rs.size(); ++i) {
      if (!rs[i].valid()) continue;
      any_valid = true;
      if (auto st = test(rs[i])) {
        rs[i] = Request{};  // invalidated, like MPI_Waitany
        out = {i, *st};
        return true;
      }
    }
    assert(any_valid && "waitany with no valid requests");
    (void)any_valid;
    return false;
  });
  if (!done) out.second.err = StatusCode::kTimedOut;
  return out;
}

MpiStatus Engine::probe(i32 src, u16 ctx, i32 tag) {
  std::optional<MpiStatus> found;
  if (progress_until("adi.probe",
                     [&] { return (found = iprobe(src, ctx, tag)).has_value(); }))
    return *found;
  MpiStatus st;
  st.err = StatusCode::kTimedOut;
  return st;
}

std::optional<MpiStatus> Engine::iprobe(i32 src, u16 ctx, i32 tag) {
  dev_.cpu(LayerCosts::probe);
  progress();
  for (const Unexpected& u : unexpected_) {
    if (!match(src, ctx, tag, u.hdr)) continue;
    MpiStatus st = status_of(u.hdr);
    if (u.hdr.kind == PktKind::kRndvRts) st.count_bytes = rts_msg_len(u.payload);
    return st;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Native-multicast collective transport
// ---------------------------------------------------------------------------

void Engine::coll_mcast(std::span<const u32> dsts, u16 ctx, PktKind kind,
                        u32 aux, std::span<const u8> data) {
  PktHeader h;
  h.kind = kind;
  h.ctx = ctx;
  h.src = rank();
  h.len = static_cast<u32>(data.size());
  h.aux = aux;
  dev_.cpu(LayerCosts::coll_fast + scaled(dev_.pack_cost(h.len)));
  // Collective transport keeps fire-and-forget semantics: a degraded path
  // surfaces at the blocked coll_wait_* peer, not here.
  (void)dev_.mcast_packet(dsts, h, data);
}

void Engine::coll_send(u32 dst, u16 ctx, PktKind kind, u32 aux,
                       std::span<const u8> data) {
  PktHeader h;
  h.kind = kind;
  h.ctx = ctx;
  h.src = rank();
  h.len = static_cast<u32>(data.size());
  h.aux = aux;
  dev_.cpu(LayerCosts::coll_fast);
  (void)dev_.send_packet(dst, h, data);
}

std::optional<std::vector<u8>> Engine::coll_wait_data(u16 ctx, u32 root, u32 bcast) {
  auto& q = collq_[{ctx, root}];
  const auto ready = [&] {
    for (; !q.empty() && q.front().bcast < bcast; q.pop_front()) ++stale_packets_;
    return !q.empty() && q.front().bcast == bcast;
  };
  if (!progress_until("adi.coll_data", ready)) return std::nullopt;
  std::vector<u8> data = std::move(q.front().data);
  q.pop_front();
  dev_.cpu(LayerCosts::coll_fast +
           scaled(dev_.unpack_cost(static_cast<u32>(data.size()))));
  return data;
}

bool Engine::coll_wait_arrivals(u16 ctx, u32 epoch, u32 n) {
  const auto key = std::make_pair(ctx, epoch);
  const bool done =
      progress_until("adi.coll_arrivals", [&] { return barrier_count_[key] >= n; });
  barrier_count_.erase(key);
  return done;
}

bool Engine::coll_wait_release(u16 ctx, u32 epoch) {
  return progress_until("adi.coll_release", [&] { return release_epoch_[ctx] >= epoch; });
}

}  // namespace scrnet::scrmpi
