#include "bbp/endpoint.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "bbp/validator.h"
#include "common/bytes.h"
#include "obs/counters.h"
#include "obs/trace.h"

// Protocol-invariant hooks (see bbp/validator.h): compiled in only under
// -DSCRNET_BBP_VALIDATE=ON; a regular build pays nothing.
#if defined(SCRNET_BBP_VALIDATE)
#define BBP_VALIDATE(ep, where) ::scrnet::bbp::Validator::check((ep), (where))
#else
#define BBP_VALIDATE(ep, where) ((void)0)
#endif

namespace scrnet::bbp {

namespace {
/// Wrap-aware sequence comparison (u32 sequence space).
inline bool seq_less(u32 a, u32 b) { return static_cast<i32>(a - b) < 0; }
}  // namespace

Endpoint::Endpoint(scramnet::MemPort& port, u32 procs, u32 me, Config cfg)
    : port_(port),
      layout_(port.bank_words(), procs, cfg.slots,
              words_for_bytes(cfg.rndv_window_bytes)),
      cfg_(cfg),
      me_(me) {
  if (me >= procs) throw std::invalid_argument("bbp: rank out of range");
  slot_.resize(cfg_.slots);
  sent_flag_mirror_.assign(procs, 0);
  ack_base_.assign(procs, 0);
  ack_out_mirror_.assign(procs, 0);
  seen_msg_.assign(procs, 0);
  slot_seq_.assign(static_cast<usize>(procs) * cfg_.slots, 0);
  inq_.resize(procs);
  last_deliv_seq_.assign(procs, 0);
  head_ = tail_ = layout_.data_base(me_);
  if (cfg_.recv_mode == RecvMode::kInterrupt) {
    // Any network write into my control partition (MESSAGE flags, ACK
    // flags) must wake me; descriptors of *other* processes live in their
    // regions and never interrupt here.
    port_.watch_range(layout_.region_base(me_),
                      layout_.region_base(me_) + layout_.control_words());
  }
}

bool Endpoint::wait(const char* site, sim::FnRef<bool()> ready,
                    sim::FnRef<void()> stall) {
  const SimTime deadline = cfg_.poll_timeout > 0 ? port_.now() + cfg_.poll_timeout : 0;
  // A configured timeout needs time to advance even when the awaited write
  // never arrives; an interrupt sleep would park forever, so poll instead.
  const auto backoff = cfg_.recv_mode == RecvMode::kInterrupt && deadline == 0
                           ? scramnet::Backoff::kInterrupt
                           : scramnet::Backoff::kPoll;
  if (port_.spin_until(site, deadline, ready, backoff, stall)) return true;
  ++stats_.timeouts;
  return false;
}

// ---------------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------------

Result<u32> Endpoint::alloc_slot(u32 len_bytes, bool block) {
  const u32 words = words_for_bytes(len_bytes);
  const u32 base = layout_.data_base(me_);
  const u32 end = data_end();

  // Where can a `words`-sized payload go, if a slot is free? Zero-length
  // messages occupy no data space and record offset = base, so a stale
  // cursor value can never leak into tail_ tracking when GC later walks
  // past them.
  // post() already rejected a payload larger than the data partition, so
  // an empty partition always has room.
  auto try_space = [&]() -> std::optional<u32> {
    if (live_.size() >= cfg_.slots) return std::nullopt;
    if (words == 0 || data_empty_) return base;
    if (head_ >= tail_) {
      if (words <= end - head_) return head_;
      if (words < tail_ - base) return base;  // wrap (strict: keep head!=tail)
      return std::nullopt;
    }
    if (words < tail_ - head_) return head_;  // strict: full != empty
    return std::nullopt;
  };

  // Claim a free slot id (one must exist: live_.size() < slots) and commit
  // the allocator cursor for an accepted offset.
  auto accept = [&](u32 off) -> u32 {
    u32 id = 0;
    while (slot_[id].in_use) ++id;
    slot_[id].offset_words = off;
    if (words > 0) {
      if (data_empty_) {
        tail_ = base;  // normalize when idle
        data_empty_ = false;
      }
      head_ = off + words;
    }
    return id;
  };

  // Each pass tries the current state, then reconciles ACKs (GC) and tries
  // again; a non-blocking call ends after one pass.
  std::optional<u32> off;
  const auto ready = [&] {
    return (off = try_space()) || (collect_garbage(), off = try_space()) || !block;
  };
  bool stalled = false;
  const bool done = wait("bbp.send", ready, [&] {
    if (stalled) return;
    ++stats_.send_stalls;
    TRACE_INSTANT(obs::Layer::kBbp, me_, "bbp.send_stall", port_);
    stalled = true;
  });
  if (!done) return Status::TimedOut("bbp: send waited out poll_timeout for space");
  if (!off) return Status::NoSpace("billboard full");
  return accept(*off);
}

void Endpoint::collect_garbage() {
  TRACE_SPAN(obs::Layer::kBbp, me_, "bbp.gc", port_);
  ++stats_.gc_runs;
  // Only receivers some live slot still waits on are worth an ACK-word
  // read: O(active destinations), not O(procs) -- at N=256 an idle GC pass
  // touches nothing.
  DestSet interested;
  for (u32 id : live_) interested.or_with(slot_[id].pending);
  interested.for_each([&](u32 r) {
    port_.cpu_delay(CpuCosts::gc_cpu);
    const u32 cur = port_.read_u32(layout_.ack_flag_addr(me_, r));
    const u32 changed = cur ^ ack_base_[r];
    if (!changed) return;
    for (u32 b = 0; b < cfg_.slots; ++b) {
      if (!((changed >> b) & 1u)) continue;
      Slot& s = slot_[b];
      // A toggled bit for a slot we are not waiting on would be a protocol
      // violation (receiver acked a slot never sent to it); surface loudly.
      assert(s.in_use && s.pending.test(r) && "bbp: unexpected ACK toggle");
      if (s.in_use && s.pending.test(r)) {
        s.pending.clear(r);
        ack_base_[r] ^= (1u << b);
      }
    }
  });
  // Reclaim completed slots in FIFO order; the circular allocator frees
  // space only from the tail, mirroring the paper's on-demand GC.
  while (!live_.empty() && slot_[live_.front()].pending.empty()) {
    const u32 id = live_.front();
    live_.pop_front();
    slot_[id].in_use = false;
    ++stats_.slots_reclaimed;
  }
  // Recompute the data extent. tail_ must follow the oldest live *payload*
  // slot: zero-length slots occupy no data words, and letting one of them
  // drag tail_ onto head_ made try_space read an empty partition as full
  // (spurious kNoSpace / send stalls).
  data_empty_ = true;
  for (u32 id : live_) {
    if (slot_[id].len_bytes == 0) continue;
    tail_ = slot_[id].offset_words;
    data_empty_ = false;
    break;
  }
  if (data_empty_) head_ = tail_ = layout_.data_base(me_);
  BBP_VALIDATE(*this, "collect_garbage");
}

Status Endpoint::post(std::span<const u32> dest_list, std::span<const u8> payload,
                      bool block) {
  DestSet dests;
  for (u32 d : dest_list) {
    if (d >= layout_.procs) return Status::InvalidArg("bbp: bad dest");
    dests.set(d);
  }
  TRACE_SPAN(obs::Layer::kBbp, me_, "bbp.post", port_);
  if (dests.empty()) return Status::InvalidArg("bbp: empty destination set");
  if (payload.size() > layout_.max_message_bytes())
    return Status::InvalidArg("bbp: message exceeds data partition");
  const u32 len_bytes = static_cast<u32>(payload.size());

  port_.cpu_delay(CpuCosts::send_setup);
  Result<u32> slot_id = alloc_slot(len_bytes, block);
  if (!slot_id.ok()) return slot_id.status();
  const u32 id = slot_id.value();

  // alloc_slot already recorded the payload offset in the slot it chose.
  Slot& s = slot_[id];
  s.in_use = true;
  s.seq = seq_next_++;
  s.len_bytes = len_bytes;
  s.pending = dests;
  live_.push_back(id);

  // 1. payload into the billboard (zero-copy from the user buffer);
  if (len_bytes > 0) {
    const std::vector<u32> words = pack_words(payload);
    if (len_bytes >= cfg_.dma_threshold_bytes) {
      port_.dma_write(s.offset_words, words);
      ++stats_.dma_sends;
    } else {
      port_.write_block(s.offset_words, words);
    }
  }
  // 2. descriptor;
  const u32 desc[3] = {s.seq, s.offset_words, s.len_bytes};
  port_.write_block(layout_.desc_addr(me_, id), desc);
  // 3. toggle the MESSAGE bit at every destination (single-step multicast);
  // the DestSet walk visits members only, so a unicast at N=256 costs one
  // word write, not a 256-bit scan.
  u32 ndest = 0;
  dests.for_each([&](u32 r) {
    port_.cpu_delay(CpuCosts::send_per_dest);
    sent_flag_mirror_[r] ^= (1u << id);
    port_.write_u32(layout_.msg_flag_addr(r, me_), sent_flag_mirror_[r]);
    ++ndest;
  });
  if (ndest > 1)
    ++stats_.mcasts;
  else
    ++stats_.sends;
  BBP_VALIDATE(*this, "post");
  return Status::Ok();
}

Status Endpoint::send(u32 dest, std::span<const u8> payload) {
  return post({&dest, 1}, payload, /*block=*/true);
}

Status Endpoint::try_send(u32 dest, std::span<const u8> payload) {
  return post({&dest, 1}, payload, /*block=*/false);
}

Status Endpoint::mcast(std::span<const u32> dests, std::span<const u8> payload) {
  return post(dests, payload, /*block=*/true);
}

Status Endpoint::try_mcast(std::span<const u32> dests, std::span<const u8> payload) {
  return post(dests, payload, /*block=*/false);
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

bool Endpoint::poll_sender(u32 s) {
  ++stats_.polls;
  const u32 cur = port_.read_u32(layout_.msg_flag_addr(me_, s));
  u32 changed = cur ^ seen_msg_[s];
  bool queued = false;
  while (changed) {
    const u32 b = static_cast<u32>(std::countr_zero(changed));
    changed &= changed - 1;
    port_.cpu_delay(CpuCosts::recv_detect);
    u32 desc[3] = {0, 0, 0};
    port_.read_block(layout_.desc_addr(s, b), desc);
    seen_msg_[s] ^= (1u << b);
    // A toggle whose descriptor repeats the seq last read from this slot
    // outran a descriptor write the ring lost (a link that healed in
    // between): the words are those of the message sent `slots` posts
    // earlier. ACK it so the sender can reuse the slot, count it and queue
    // nothing; the lost message's operation times out.
    u32& last_seq = slot_seq_[s * cfg_.slots + b];
    if (desc[0] == last_seq) {
      ++stats_.stale_descs;
      ack(s, b);
      continue;
    }
    last_seq = desc[0];
    Incoming in{s, b, desc[0], desc[1], desc[2]};
    // In-order delivery: insert by sender sequence number (bits can be
    // discovered out of slot order after wrap-around).
    auto& q = inq_[s];
    auto it = q.end();
    while (it != q.begin() && seq_less(in.seq, std::prev(it)->seq)) --it;
    q.insert(it, in);
    queued = true;
  }
  return queued;
}

void Endpoint::ack(u32 src, u32 slot) {
  ack_out_mirror_[src] ^= (1u << slot);
  port_.write_u32(layout_.ack_flag_addr(src, me_), ack_out_mirror_[src]);
}

bool Endpoint::poll_all() {
  bool any = false;
  for (u32 s = 0; s < layout_.procs; ++s) any = poll_sender(s) || any;
  return any;
}

std::optional<u32> Endpoint::first_queued() const {
  for (u32 i = 0; i < layout_.procs; ++i) {
    const u32 s = (rr_next_ + i) % layout_.procs;
    if (!inq_[s].empty()) return s;
  }
  return std::nullopt;
}

Result<RecvInfo> Endpoint::deliver(u32 src, std::span<u8> buf) {
  const Incoming msg = inq_[src].front();
  inq_[src].pop_front();
  RecvInfo info;
  info.src = msg.src;
  info.len = msg.len_bytes;
  info.copied = static_cast<u32>(
      std::min<usize>(msg.len_bytes, buf.size()));
  info.truncated = info.copied < msg.len_bytes;

  if (info.copied > 0) {
    std::vector<u32> words(words_for_bytes(info.copied));
    port_.read_block(msg.offset_words, words);
    unpack_into(words, buf, info.copied);
  }
  port_.cpu_delay(CpuCosts::recv_deliver);

  ack(msg.src, msg.slot);
  ++stats_.recvs;
  last_deliv_seq_[msg.src] = msg.seq;
  BBP_VALIDATE(*this, "deliver");
  return info;
}

Result<RecvInfo> Endpoint::recv(u32 src, std::span<u8> buf) {
  TRACE_SPAN(obs::Layer::kBbp, me_, "bbp.recv", port_);
  if (src >= layout_.procs) return Status::InvalidArg("bbp: bad src");
  if (!wait("bbp.recv", [&] { return !inq_[src].empty() || poll_sender(src); }))
    return Status::TimedOut("bbp: recv waited out poll_timeout");
  return deliver(src, buf);
}

Result<RecvInfo> Endpoint::recv_any(std::span<u8> buf) {
  TRACE_SPAN(obs::Layer::kBbp, me_, "bbp.recv_any", port_);
  if (!wait("bbp.recv_any", [&] { return first_queued() || poll_all(); }))
    return Status::TimedOut("bbp: recv_any waited out poll_timeout");
  const u32 s = *first_queued();
  rr_next_ = (s + 1) % layout_.procs;
  return deliver(s, buf);
}

std::optional<u32> Endpoint::msg_avail() {
  port_.cpu_delay(CpuCosts::msg_avail);
  if (const auto s = first_queued()) return s;
  // Poll flag words round-robin and stop at the first sender with news --
  // an avail check does not need to sweep every sender.
  for (u32 i = 0; i < layout_.procs; ++i) {
    const u32 s = (rr_next_ + i) % layout_.procs;
    if (poll_sender(s)) return s;
  }
  return std::nullopt;
}

bool Endpoint::msg_avail_from(u32 src) {
  if (src >= layout_.procs) return false;
  port_.cpu_delay(CpuCosts::msg_avail);
  if (!inq_[src].empty()) return true;
  poll_sender(src);
  return !inq_[src].empty();
}

std::optional<u32> Endpoint::peek_len(u32 src) {
  if (src >= layout_.procs) return std::nullopt;
  if (inq_[src].empty()) poll_sender(src);
  if (inq_[src].empty()) return std::nullopt;
  return inq_[src].front().len_bytes;
}

Status Endpoint::drain() {
  TRACE_SPAN(obs::Layer::kBbp, me_, "bbp.drain", port_);
  const bool done = wait("bbp.drain", [&] {
    return inflight() == 0 || (collect_garbage(), inflight() == 0);
  });
  return done ? Status::Ok() : Status::TimedOut("bbp: drain waited out poll_timeout");
}

u32 Endpoint::inflight() const {
  u32 n = 0;
  for (const Slot& s : slot_)
    if (s.in_use) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Zero-copy rendezvous window
// ---------------------------------------------------------------------------

Result<u32> Endpoint::rndv_reserve(u32 bytes) {
  const u32 words = words_for_bytes(bytes);
  if (words == 0 || words > layout_.rndv_words) {
    ++stats_.rndv_rejects;
    return Status::NoSpace("bbp: reservation exceeds rendezvous window");
  }
  // First fit over the gaps between live extents (rndv_live_ is sorted).
  const u32 base = layout_.rndv_base(me_);
  const u32 end = base + layout_.rndv_words;
  u32 cursor = base;
  auto it = rndv_live_.begin();
  for (; it != rndv_live_.end(); ++it) {
    if (it->off_words - cursor >= words) break;
    cursor = it->off_words + it->words;
  }
  if (it == rndv_live_.end() && end - cursor < words) {
    ++stats_.rndv_rejects;
    return Status::NoSpace("bbp: rendezvous window full");
  }
  rndv_live_.insert(it, RndvExtent{cursor, words});
  ++stats_.rndv_reserves;
  return cursor;
}

void Endpoint::rndv_release(u32 addr_words, u32 bytes) {
  const u32 words = words_for_bytes(bytes);
  for (auto it = rndv_live_.begin(); it != rndv_live_.end(); ++it) {
    if (it->off_words == addr_words && it->words == words) {
      rndv_live_.erase(it);
      return;
    }
  }
}

void Endpoint::rndv_put(u32 addr_words, std::span<const u8> payload) {
  TRACE_SPAN(obs::Layer::kBbp, me_, "bbp.rndv_put", port_);
  if (payload.empty()) return;
  // Straight from the user buffer onto the ring: no slot, no descriptor,
  // no staging copy. The alloc/bookkeeping cost of the slot path is gone;
  // only the send setup (address arithmetic) remains.
  port_.cpu_delay(CpuCosts::send_setup);
  const std::vector<u32> words = pack_words(payload);
  if (payload.size() >= cfg_.dma_threshold_bytes) {
    port_.dma_write(addr_words, words);
    ++stats_.dma_sends;
  } else {
    port_.write_block(addr_words, words);
  }
  ++stats_.rndv_puts;
  stats_.rndv_put_bytes += payload.size();
}

Status Endpoint::rndv_read(u32 addr_words, std::span<u8> buf, u32 len) {
  TRACE_SPAN(obs::Layer::kBbp, me_, "bbp.rndv_read", port_);
  const u32 n = static_cast<u32>(std::min<usize>(len, buf.size()));
  if (n > 0) {
    std::vector<u32> words(words_for_bytes(n));
    port_.read_block(addr_words, words);
    unpack_into(words, buf, n);
  }
  port_.cpu_delay(CpuCosts::recv_deliver);
  return Status::Ok();
}

u32 Endpoint::rndv_reserved_bytes() const {
  u32 words = 0;
  for (const RndvExtent& e : rndv_live_) words += e.words;
  return words * 4;
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

void Endpoint::publish_counters(obs::Counters& c, std::string_view group) const {
  c.add(group, "sends", stats_.sends);
  c.add(group, "mcasts", stats_.mcasts);
  c.add(group, "recvs", stats_.recvs);
  c.add(group, "polls", stats_.polls);
  c.add(group, "gc_runs", stats_.gc_runs);
  c.add(group, "slots_reclaimed", stats_.slots_reclaimed);
  c.add(group, "send_stalls", stats_.send_stalls);
  c.add(group, "dma_sends", stats_.dma_sends);
  c.add(group, "timeouts", stats_.timeouts);
  c.add(group, "stale_descs", stats_.stale_descs);
  c.add(group, "rndv_reserves", stats_.rndv_reserves);
  c.add(group, "rndv_rejects", stats_.rndv_rejects);
  c.add(group, "rndv_puts", stats_.rndv_puts);
  c.add(group, "rndv_put_bytes", stats_.rndv_put_bytes);
}

}  // namespace scrnet::bbp
