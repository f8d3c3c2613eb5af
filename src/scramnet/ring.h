// SCRAMNet replicated shared-memory ring -- discrete-event device model.
//
// Every node owns a memory bank replicated across the ring. A host write
// lands in the local bank immediately and is injected onto the ring as a
// packet; the packet visits each downstream node after k hop latencies and
// updates that node's bank on arrival. Packets from one sender stay in
// FIFO order (register-insertion rings guarantee this and the BillBoard
// Protocol depends on it); packets from *different* senders may be applied
// at different nodes in different relative orders -- the non-coherence the
// paper describes in Section 2.
//
// Bandwidth is modeled at two choke points: a per-node insertion engine
// and the shared ring medium, both running at the mode's data rate.
//
// Injection is batched per virtual instant: host writes are recorded, and
// one flush event at that instant injects them sorted by node, so nodes
// that request the shared medium at the same picosecond are served in
// node order rather than in the order their writes happened to execute.
//
// Rings compose through taps (set_relay): a tapped node hands each packet
// it sees to a callback that forwards it onto another ring (relay_write),
// through the same record/flush/inject path as host writes.
//
// All banks live in one anonymous mapping per ring, node k's at word
// k * bank_words. Pages nobody has written read as the kernel's shared
// zero page, so set-up time and resident memory grow with the pages the
// protocol touches, not with nodes x bank size. A finished ring zeroes the
// 4 KiB granules it wrote and leaves its mapping (up to 64 MiB) in the
// thread's cache (sim/mapping.h) for the next ring of the same size.
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "scramnet/config.h"
#include "sim/simulation.h"

namespace scrnet::obs {
class Counters;
}

namespace scrnet::scramnet {

class Ring {
 public:
  /// Throws std::invalid_argument for an invalid `cfg`, and
  /// std::system_error (naming the byte size) when the banks cannot be
  /// mapped.
  Ring(sim::Simulation& sim, RingConfig cfg);
  ~Ring();
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  const RingConfig& config() const { return cfg_; }
  u32 nodes() const { return cfg_.nodes; }
  u32 bank_words() const { return cfg_.bank_words; }
  sim::Simulation& simulation() { return sim_; }

  /// Host writes one word at `node` (immediate locally, replicated on ring).
  void host_write(u32 node, u32 word_addr, u32 value);

  /// Host writes a block; injections are paced at `word_period` apart so the
  /// ring transfer overlaps the host's PIO burst (start of pacing = now).
  void host_write_block(u32 node, u32 word_addr, std::span<const u32> words,
                        SimTime word_period);

  /// Host reads from the local bank (the replicated copy at `node`).
  u32 host_read(u32 node, u32 word_addr) const;
  void host_read_block(u32 node, u32 word_addr, std::span<u32> out) const;

  /// Register an interrupt handler fired when a *network-delivered* write
  /// lands at `node` inside [lo_addr, hi_addr). Used by the interrupt-driven
  /// receive ablation (the paper's "future work" direction).
  void set_interrupt(u32 node, u32 lo_addr, u32 hi_addr,
                     std::function<void(u32 addr)> handler);

  /// Tap `node`: `fn(word_addr, words, at)` runs for every packet that
  /// reaches it -- a network delivery in that hop's own event (`at` = the
  /// hop time), and a packet `node`'s own host wrote when it is injected
  /// (`at` = its serialization-done time). Packets that entered through
  /// relay_write are never tapped.
  using Relay = std::function<void(u32 word_addr, std::span<const u32> words, SimTime at)>;
  void set_relay(u32 node, Relay fn) { hooks_[node].relay = std::move(fn); }

  /// Forward a packet from another ring in at `node`: the words land in
  /// `node`'s bank now as a network delivery (firing its IRQ watch), and
  /// the packet is injected from `node` no earlier than `ready_at`.
  void relay_write(u32 node, u32 word_addr, std::span<const u32> words,
                   SimTime ready_at);

  /// Virtual time by which every packet `node` has injected so far has
  /// reached every node (a write fence waits for it).
  SimTime settled_at(u32 node) const;

  /// Virtual time at which the write issued at `node` right now would have
  /// fully propagated to every other node (useful for tests).
  SimTime full_propagation_bound() const;

  // -- fault injection ------------------------------------------------------

  /// Fail the link from `node` to its downstream neighbor, effective now.
  /// With cfg.redundant_ring the fabric recovers after cfg.switchover and
  /// affected deliveries are delayed; without it they are lost.
  /// kInvalidArg if `node` names no link.
  Status fail_link(u32 node);
  /// Repair the link (takes effect for packets injected afterwards).
  Status heal_link(u32 node);
  /// Scale node `node`'s insertion-engine serialization time by `factor`
  /// (> 1.0 = a wrong-speed / degraded NIC; 1.0 restores nominal).
  Status set_node_speed_factor(u32 node, double factor);
  bool link_failed(u32 node) const {
    return node < cfg_.nodes && link_failed_[node];
  }
  u64 packets_lost() const { return lost_.get(); }
  /// Redundant-ring switchovers initiated by link failures.
  u64 switchovers() const { return switchovers_.get(); }

  // -- statistics ----------------------------------------------------------
  u64 packets_sent() const { return packets_.get(); }
  u64 words_replicated() const { return words_.get(); }
  u64 interrupts_fired() const { return irq_fired_.get(); }
  /// Packet-walk pool high-water mark (== max packets ever in flight);
  /// steady-state traffic reuses these slots without allocating.
  usize walk_pool_size() const { return walk_pool_.size(); }

  /// Publish the fabric counters into the registry under `group`.
  void publish_counters(obs::Counters& c, std::string_view group) const;

 private:
  struct IrqRange {
    u32 lo = 0, hi = 0;
    std::function<void(u32)> handler;
  };
  /// A node's IRQ watch and tap: one record, read once per walk hop.
  struct NodeHooks {
    IrqRange irq;
    Relay relay;
  };

  /// One in-flight packet working its way around the ring. The payload
  /// lives inline for small packets (every kFixed4 packet and every single
  /// host_write) and in a capacity-recycled vector for large variable-mode
  /// chunks. Each hop's event posts the next hop instead of pre-posting
  /// one event per downstream node.
  static constexpr u32 kInlinePacketWords = 8;
  static constexpr u32 kNoBrokenHop = std::numeric_limits<u32>::max();
  struct Walk {
    Walk* next_free = nullptr;
    SimTime base = 0;       // serialization-done time (delivery anchor)
    SimTime recover = 0;    // recover_at_ snapshot at injection
    u32 src = 0;
    u32 word_addr = 0;
    u32 nwords = 0;
    u32 k = 0;              // next hop to deliver (1-based)
    u32 last_hop = 0;       // final hop to deliver
    u32 first_broken = 0;   // hops >= this ride the backup ring
    u32 inline_words[kInlinePacketWords] = {};
    std::vector<u32> big_words;  // payload when nwords > kInlinePacketWords
    const u32* data() const {
      return nwords <= kInlinePacketWords ? inline_words : big_words.data();
    }
  };

  /// One write waiting for its instant's flush. The payload lives in
  /// seq_payload_ at payload_off; `t` anchors the injection ready times:
  /// the time the host issued the write, or a forwarded packet's ready time.
  struct WriteOp {
    SimTime t;
    u32 node;
    u32 word_addr = 0;
    u32 nwords = 0;
    bool relayed = false;     // entered through relay_write: never tapped
    usize payload_off = 0;
    SimTime word_period = 0;  // block pacing; 0 for single-word writes
  };

  /// Schedule one packet of `words` (already applied to the sender's bank);
  /// earliest injection time is `ready_at`. Returns when the packet
  /// finishes serializing onto the ring.
  SimTime inject_packet(u32 src, u32 word_addr, std::span<const u32> words,
                        SimTime ready_at);

  /// Delivery time of hop `k` for this walk (same formula the per-node
  /// event posting used: done + k*hop, pushed past switchover on the
  /// redundant ring when the path was broken at injection).
  SimTime hop_time(const Walk& w, u32 k) const;
  void walk_hop(Walk* w);

  Walk* acquire_walk();
  void release_walk(Walk* w);

  void deliver(u32 dst, u32 word_addr, const u32* words, u32 nwords);

  /// Record `op` (+ payload words) and make sure a flush event at the
  /// current timestamp is queued. The flush injects every write recorded
  /// at that instant sorted by ready time, then node, so same-picosecond
  /// medium arbitration is node-ordered.
  void seq_record(const WriteOp& op, std::span<const u32> words);
  void seq_flush();
  /// Inject one recorded write, chunked into packets by the ring mode,
  /// and hand each packet of a host write to its node's tap.
  void replay_op(const WriteOp& op, const u32* payload);

  /// Node `node`'s bank: bank_words words inside the ring's mapping.
  u32* bank(u32 node) { return mem_ + usize{node} * cfg_.bank_words; }
  const u32* bank(u32 node) const { return mem_ + usize{node} * cfg_.bank_words; }

  /// Words of the mapping zeroed together when the ring is destroyed.
  static constexpr usize kGranuleWords = 1024;  // 4 KiB
  /// Record that words [word_addr, word_addr + nwords) of `node`'s bank
  /// were written.
  void mark_written(u32 node, u32 word_addr, usize nwords);

  sim::Simulation& sim_;
  RingConfig cfg_;
  u32* mem_ = nullptr;                      // nodes x bank_words, mapped
  std::vector<u64> written_;                // one bit per granule of mem_
  std::vector<SimTime> tx_free_;            // per-node insertion engine
  SimTime ring_free_ = 0;                   // shared medium
  std::vector<NodeHooks> hooks_;            // per-node IRQ watch + tap
  std::vector<bool> link_failed_;           // hop node -> node+1 broken
  std::vector<double> speed_factor_;        // per-node TX serialization scale
  SimTime recover_at_ = 0;                  // redundant switchover deadline
  std::deque<Walk> walk_pool_;              // stable-address packet states
  Walk* walk_free_ = nullptr;
  std::vector<WriteOp> seq_ops_;            // same-instant write batch
  std::vector<u32> seq_payload_;            // its payload arena
  bool seq_flush_posted_ = false;
  Counter packets_, words_, lost_, switchovers_, irq_fired_;
};

}  // namespace scrnet::scramnet
