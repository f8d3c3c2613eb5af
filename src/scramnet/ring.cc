#include "scramnet/ring.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/counters.h"
#include "obs/trace.h"
#include "sim/mapping.h"

namespace scrnet::scramnet {

namespace {

usize mapping_bytes(const RingConfig& cfg) {
  return usize{cfg.nodes} * cfg.bank_words * sizeof(u32);
}

}  // namespace

Ring::Ring(sim::Simulation& sim, RingConfig cfg) : sim_(sim), cfg_(cfg) {
  if (!cfg_.valid()) throw std::invalid_argument("invalid RingConfig");
  tx_free_.assign(cfg_.nodes, 0);
  hooks_.resize(cfg_.nodes);
  link_failed_.assign(cfg_.nodes, false);
  speed_factor_.assign(cfg_.nodes, 1.0);
  const usize bytes = mapping_bytes(cfg_);
  const usize granules = (bytes / sizeof(u32) + kGranuleWords - 1) / kGranuleWords;
  written_.assign((granules + 63) / 64, 0);
  // Mapped last, so nothing after it can throw and leak the mapping. A kept
  // mapping is all zero, and the kernel hands out zeroed pages on first
  // touch; nothing is filled here.
  mem_ = static_cast<u32*>(sim::take_region(bytes, /*guard=*/false).base);
}

Ring::~Ring() {
  const usize bytes = mapping_bytes(cfg_);
  // Zero what the banks' writes touched, so the next ring finds the
  // mapping as mmap would hand it out; one too large to keep is unmapped
  // as it is.
  if (bytes <= sim::kMaxCachedBytes) {
    const usize words = bytes / sizeof(u32);
    for (usize i = 0; i < written_.size(); ++i) {
      for (u64 bits = written_[i]; bits != 0; bits &= bits - 1) {
        const usize w = (i * 64 + static_cast<usize>(std::countr_zero(bits))) * kGranuleWords;
        std::memset(mem_ + w, 0, std::min(kGranuleWords, words - w) * sizeof(u32));
      }
    }
  }
  sim::give_region(mem_, bytes, /*guard=*/false);
}

void Ring::mark_written(u32 node, u32 word_addr, usize nwords) {
  const usize w = usize{node} * cfg_.bank_words + word_addr;
  for (usize g = w / kGranuleWords, end = (w + nwords + kGranuleWords - 1) / kGranuleWords;
       g < end; ++g)
    written_[g / 64] |= u64{1} << (g % 64);
}

Status Ring::fail_link(u32 node) {
  if (node >= cfg_.nodes)
    return Status::InvalidArg("ring: fail_link on nonexistent link " +
                              std::to_string(node));
  link_failed_[node] = true;
  if (cfg_.redundant_ring) {
    switchovers_.inc();
    recover_at_ = std::max(recover_at_, sim_.now() + cfg_.switchover);
  }
  return Status::Ok();
}

Status Ring::heal_link(u32 node) {
  if (node >= cfg_.nodes)
    return Status::InvalidArg("ring: heal_link on nonexistent link " +
                              std::to_string(node));
  link_failed_[node] = false;
  return Status::Ok();
}

Status Ring::set_node_speed_factor(u32 node, double factor) {
  if (node >= cfg_.nodes)
    return Status::InvalidArg("ring: speed factor on nonexistent node " +
                              std::to_string(node));
  if (!(factor > 0.0))
    return Status::InvalidArg("ring: speed factor must be positive");
  speed_factor_[node] = factor;
  return Status::Ok();
}

SimTime Ring::inject_packet(u32 src, u32 word_addr, std::span<const u32> words,
                            SimTime ready_at) {
  const u32 payload = static_cast<u32>(words.size()) * 4u;
  // A wrong-speed NIC serializes slower, holding both its insertion engine
  // and the shared medium longer (register insertion: the ring waits on the
  // inserting node). Factor 1.0 is the untouched nominal path.
  const SimTime occ = dial_scale(cfg_.packet_occupancy(payload), speed_factor_[src]);
  SimTime start = std::max({ready_at, tx_free_[src], ring_free_});
  const SimTime done = start + occ;
  tx_free_[src] = done;
  ring_free_ = done;
  packets_.inc();
  words_.inc(words.size());
  TRACE_INSTANT(obs::Layer::kRing, src, "ring.inject", sim_);

  // The packet visits each downstream node after k hop latencies past
  // serialization. Link state is sampled here, at injection, exactly as the
  // old per-node event posting did: a failed link on the path loses the
  // packet for nodes beyond it (no redundancy) or delays them past the
  // switchover. One pooled walk record then carries the packet hop to hop,
  // one event per hop.
  u32 first_broken = kNoBrokenHop;
  for (u32 k = 1; k < cfg_.nodes; ++k) {
    if (link_failed_[(src + k - 1) % cfg_.nodes]) {
      first_broken = k;
      break;
    }
  }
  u32 last_hop = cfg_.nodes - 1;
  if (first_broken != kNoBrokenHop && !cfg_.redundant_ring) {
    lost_.inc(cfg_.nodes - first_broken);  // every node past the break
    last_hop = first_broken - 1;
  }
  if (last_hop == 0) return done;  // first hop is dead: nothing to deliver

  Walk* w = acquire_walk();
  w->base = done;
  w->recover = recover_at_;
  w->src = src;
  w->word_addr = word_addr;
  w->nwords = static_cast<u32>(words.size());
  w->k = 1;
  w->last_hop = last_hop;
  w->first_broken = first_broken;
  if (w->nwords <= kInlinePacketWords) {
    for (u32 i = 0; i < w->nwords; ++i) w->inline_words[i] = words[i];
  } else {
    w->big_words.assign(words.begin(), words.end());
  }
  sim_.post_at(hop_time(*w, 1), [this, w] { walk_hop(w); });
  return done;
}

SimTime Ring::hop_time(const Walk& w, u32 k) const {
  const SimTime propagation = static_cast<SimTime>(k) * cfg_.hop_latency;
  if (k >= w.first_broken) return std::max(w.base, w.recover) + propagation;
  return w.base + propagation;
}

void Ring::walk_hop(Walk* w) {
  // Hop w->k runs at its own tick: deliver, run the node's tap, then post
  // hop k+1.
  const u32 dst = (w->src + w->k) % cfg_.nodes;
  deliver(dst, w->word_addr, w->data(), w->nwords);
  if (const Relay& relay = hooks_[dst].relay)
    relay(w->word_addr, std::span<const u32>(w->data(), w->nwords), sim_.now());
  if (w->k >= w->last_hop) {
    release_walk(w);
    return;
  }
  ++w->k;
  sim_.post_at(hop_time(*w, w->k), [this, w] { walk_hop(w); });
}

Ring::Walk* Ring::acquire_walk() {
  if (walk_free_ == nullptr) {
    walk_pool_.emplace_back();
    return &walk_pool_.back();
  }
  Walk* w = walk_free_;
  walk_free_ = w->next_free;
  return w;
}

void Ring::release_walk(Walk* w) {
  w->big_words.clear();  // keeps capacity for the next large packet
  w->next_free = walk_free_;
  walk_free_ = w;
}

void Ring::deliver(u32 dst, u32 word_addr, const u32* words, u32 nwords) {
  assert(word_addr + nwords <= cfg_.bank_words);
  // Index from a pointer: `bank[word_addr + i]` may wrap in 32 bits, which
  // keeps GCC from vectorizing the copy of a 256-word variable-mode packet.
  u32* out = bank(dst) + word_addr;
  for (u32 i = 0; i < nwords; ++i) out[i] = words[i];
  mark_written(dst, word_addr, nwords);
  const IrqRange& r = hooks_[dst].irq;
  if (r.handler) {
    const u32 end = word_addr + nwords;
    if (word_addr < r.hi && end > r.lo) {
      irq_fired_.inc();
      r.handler(word_addr);
    }
  }
}

void Ring::host_write(u32 node, u32 word_addr, u32 value) {
  assert(node < cfg_.nodes && word_addr < cfg_.bank_words);
  bank(node)[word_addr] = value;  // the local copy is immediate
  mark_written(node, word_addr, 1);
  WriteOp op{sim_.now(), node};
  op.word_addr = word_addr;
  op.nwords = 1;
  seq_record(op, std::span<const u32>(&value, 1));
}

void Ring::host_write_block(u32 node, u32 word_addr, std::span<const u32> words,
                            SimTime word_period) {
  assert(node < cfg_.nodes);
  assert(word_addr + words.size() <= cfg_.bank_words);
  if (words.empty()) return;

  // The host's PIO burst streams words into the NIC FIFO at `word_period`;
  // the TX engine cuts through: it starts serializing a packet as soon as
  // its first words arrive (ring rate ~ burst rate, so the FIFO never runs
  // dry mid-packet). A packet is therefore ready at its *first* word's
  // arrival; per-sender FIFO ordering is still enforced by the insertion
  // engine (tx_free_), and delivery of a chunk always trails the host's
  // write of that chunk because occupancy >= the chunk's pacing span.
  // The whole burst lands in the local bank within this synchronous call
  // (no event can interleave), so write it in one pass instead of building
  // a chunk vector per packet -- in kFixed4 mode that used to mean one
  // 1-word vector per word written.
  u32* out = bank(node) + word_addr;
  for (usize i = 0; i < words.size(); ++i) out[i] = words[i];
  mark_written(node, word_addr, words.size());
  // One record for the whole burst; the flush re-runs the chunking loop
  // with ready times anchored at this op's time.
  WriteOp op{sim_.now(), node};
  op.word_addr = word_addr;
  op.nwords = static_cast<u32>(words.size());
  op.word_period = word_period;
  seq_record(op, words);
}

void Ring::relay_write(u32 node, u32 word_addr, std::span<const u32> words,
                       SimTime ready_at) {
  const u32 n = static_cast<u32>(words.size());
  deliver(node, word_addr, words.data(), n);
  seq_record(WriteOp{ready_at, node, word_addr, n, /*relayed=*/true}, words);
}

void Ring::seq_record(const WriteOp& op, std::span<const u32> words) {
  seq_ops_.push_back(op);
  seq_ops_.back().payload_off = seq_payload_.size();
  seq_payload_.insert(seq_payload_.end(), words.begin(), words.end());
  if (seq_flush_posted_) return;
  seq_flush_posted_ = true;
  // The flush lands behind every event already queued at this timestamp,
  // so it collects all writes issued at this instant before arbitrating.
  sim_.post_at(sim_.now(), [this] { seq_flush(); });
}

void Ring::seq_flush() {
  seq_flush_posted_ = false;
  // The batch holds every op recorded at this instant: host writes carry
  // the flush's own time, forwarded packets (relay_write) their ready time,
  // which may be later. Sorting by time, then node, hands the medium to
  // requesters with the same ready time in node order.
  std::stable_sort(seq_ops_.begin(), seq_ops_.end(),
                   [](const WriteOp& a, const WriteOp& b) {
                     if (a.t != b.t) return a.t < b.t;
                     return a.node < b.node;
                   });
  for (const WriteOp& op : seq_ops_)
    replay_op(op, seq_payload_.data() + op.payload_off);
  seq_ops_.clear();
  seq_payload_.clear();
}

void Ring::replay_op(const WriteOp& op, const u32* payload) {
  // The bank was already written by host_write*; run only the injection
  // side, chunked by the ring mode and paced from the op's own time.
  const u32 chunk_words =
      cfg_.mode == PacketMode::kFixed4 ? 1u : cfg_.max_var_packet_bytes / 4u;
  const Relay& tap = hooks_[op.node].relay;
  const bool tapped = !op.relayed && tap;
  u32 off = 0;
  while (off < op.nwords) {
    const u32 n = std::min(chunk_words, op.nwords - off);
    const SimTime ready = op.t + static_cast<SimTime>(off) * op.word_period;
    const std::span<const u32> packet(payload + off, n);
    const SimTime done = inject_packet(op.node, op.word_addr + off, packet, ready);
    if (tapped) tap(op.word_addr + off, packet, done);
    off += n;
  }
}

u32 Ring::host_read(u32 node, u32 word_addr) const {
  assert(node < cfg_.nodes && word_addr < cfg_.bank_words);
  return bank(node)[word_addr];
}

void Ring::host_read_block(u32 node, u32 word_addr, std::span<u32> out) const {
  assert(node < cfg_.nodes);
  assert(word_addr + out.size() <= cfg_.bank_words);
  const u32* in = bank(node) + word_addr;
  for (usize i = 0; i < out.size(); ++i) out[i] = in[i];
}

void Ring::set_interrupt(u32 node, u32 lo_addr, u32 hi_addr,
                         std::function<void(u32)> handler) {
  assert(node < cfg_.nodes && lo_addr <= hi_addr);
  hooks_[node].irq = IrqRange{lo_addr, hi_addr, std::move(handler)};
}

void Ring::publish_counters(obs::Counters& c, std::string_view group) const {
  c.add(group, "packets_sent", packets_sent());
  c.add(group, "words_replicated", words_replicated());
  c.add(group, "interrupts_fired", interrupts_fired());
  c.add(group, "packets_lost", packets_lost());
  c.add(group, "switchovers", switchovers());
}

SimTime Ring::settled_at(u32 node) const {
  return std::max(tx_free_[node], recover_at_) +
         static_cast<SimTime>(cfg_.nodes - 1) * cfg_.hop_latency;
}

SimTime Ring::full_propagation_bound() const {
  return cfg_.packet_occupancy(cfg_.mode == PacketMode::kFixed4 ? 4u
                                                                : cfg_.max_var_packet_bytes) +
         static_cast<SimTime>(cfg_.nodes - 1) * cfg_.hop_latency;
}

}  // namespace scrnet::scramnet
