// BillBoard Protocol endpoint -- the paper's primary contribution.
//
// One Endpoint per participating process. The protocol is zero-copy at the
// sender (payload goes straight from the user buffer into SCRAMNet memory)
// and lock-free (every shared word has a single writer; signaling is done
// by *toggling* MESSAGE/ACK flag bits, so no word is ever contended).
//
// Send path (paper Section 3):
//   1. allocate a buffer in my data partition (garbage-collect on demand);
//   2. write the payload into the buffer;
//   3. write the buffer descriptor {seq, offset, len};
//   4. toggle the MESSAGE flag bit for this slot in each destination's
//      control partition -- one extra word write per extra receiver, which
//      is why multicast is a single-step algorithm here.
//
// Receive path:
//   1. poll my MESSAGE flag words and diff against remembered values;
//   2. for each toggled bit, read the sender's descriptor; queue the
//      message, ordered by sender sequence number (in-order delivery);
//   3. on delivery, read the payload from the sender's data partition and
//      toggle my ACK bit in the sender's control partition.
//
// The sender reclaims a slot once every destination's ACK bit has toggled.
#pragma once

#include <deque>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/units.h"
#include "bbp/destset.h"
#include "bbp/layout.h"
#include "scramnet/port.h"

namespace scrnet::obs {
class Counters;
}

namespace scrnet::bbp {

/// Protocol software-overhead model: virtual CPU time charged through the
/// port (calibrated so a 4-byte one-way send measures 7.8 us as in the
/// paper).
struct CpuCosts {
  static constexpr SimTime send_setup = ns(600);    // alloc + slot bookkeeping
  static constexpr SimTime send_per_dest = ns(60);  // destination-mask bookkeeping
  static constexpr SimTime recv_detect = ns(150);   // flag diff + queue insert
  static constexpr SimTime recv_deliver = ns(650);  // copy-out + API return bookkeeping
  static constexpr SimTime gc_cpu = ns(120);        // reconcile one ack word
  static constexpr SimTime msg_avail = ns(100);     // bbp_MsgAvail bookkeeping
};

/// How a blocked receiver waits for new MESSAGE/ACK flag toggles.
enum class RecvMode {
  kPolling,    // spin on PIO reads across the I/O bus (the paper's BBP)
  kInterrupt,  // sleep until the NIC interrupts on a control-partition
               // write (the paper's Section 7 future-work direction)
};

struct Config {
  u32 slots = 32;  // buffer slots per process (1..32)
  RecvMode recv_mode = RecvMode::kPolling;
  // Payloads of at least this many bytes go out via the NIC DMA engine
  // instead of PIO (paper Section 2 offers both). DMA frees the sender's
  // CPU during the transfer, which pipelines back-to-back sends; wire time
  // is unchanged. Default: disabled (the paper's BBP measurements are PIO).
  u32 dma_threshold_bytes = 0xFFFFFFFFu;
  // Bounded wait for each blocking call (send stalled for space, recv,
  // recv_any, drain): past this much virtual time it returns kTimedOut --
  // the degraded-mode behavior fault scenarios rely on. 0 (the default)
  // keeps the paper's semantics: block indefinitely; a lost flag toggle
  // then ends the run in DeadlockError naming the wait ("bbp.recv").
  // With a timeout set, a blocked endpoint always advances virtual time
  // by polling, even in kInterrupt mode (an interrupt sleep has no
  // wake-up when the awaited write was lost on the ring).
  SimTime poll_timeout = 0;
  // Zero-copy rendezvous window carved from the top of this process's
  // region (see Layout::rndv_base). 0 (the default) keeps the layout
  // exactly as the paper describes; nonzero shrinks the circular data
  // partition by this many bytes and enables rndv_reserve/rndv_put.
  u32 rndv_window_bytes = 0;
};

/// Result of a successful receive.
struct RecvInfo {
  u32 src = 0;
  u32 len = 0;       // full message length in bytes (may exceed copied bytes)
  u32 copied = 0;    // bytes copied into the caller's buffer
  bool truncated = false;
};

/// Endpoint statistics (virtual-cost-free; used by tests and benches).
struct EndpointStats {
  u64 sends = 0;
  u64 mcasts = 0;
  u64 recvs = 0;
  u64 polls = 0;
  u64 gc_runs = 0;
  u64 slots_reclaimed = 0;
  u64 send_stalls = 0;  // times send had to wait for space/slots
  u64 dma_sends = 0;    // payloads that went out via the DMA engine
  u64 timeouts = 0;     // blocking calls that gave up at poll_timeout
  u64 stale_descs = 0;  // MESSAGE toggles whose descriptor write was lost
  u64 rndv_reserves = 0;   // rendezvous window reservations granted
  u64 rndv_rejects = 0;    // reservations refused (window full / too big)
  u64 rndv_puts = 0;       // remote-writes into a peer's window
  u64 rndv_put_bytes = 0;  // payload bytes remote-written (zero staging copy)
};

class Endpoint {
 public:
  /// `port` must outlive the endpoint. `me` is this process's BBP rank in
  /// [0, procs), which the port does not know: usually the node the port
  /// sits on (the global node id on a RingHierarchy, whose ports know only
  /// their leaf-local index), but several BBP processes may share a node.
  Endpoint(scramnet::MemPort& port, u32 procs, u32 me, Config cfg = {});

  u32 rank() const { return me_; }
  u32 procs() const { return layout_.procs; }
  const Layout& layout() const { return layout_; }
  const EndpointStats& stats() const { return stats_; }
  scramnet::MemPort& port() { return port_; }

  /// Point-to-point send (blocking until buffer space is available).
  Status send(u32 dest, std::span<const u8> payload);

  /// Single-step multicast: one payload write, one descriptor, one MESSAGE
  /// flag toggle per destination.
  Status mcast(std::span<const u32> dests, std::span<const u8> payload);

  /// Non-blocking send attempt; kNoSpace if the billboard is full even
  /// after garbage collection.
  Status try_send(u32 dest, std::span<const u8> payload);
  Status try_mcast(std::span<const u32> dests, std::span<const u8> payload);

  /// Blocking receive from a specific source; kTimedOut once
  /// cfg.poll_timeout (if nonzero) elapses with nothing delivered.
  Result<RecvInfo> recv(u32 src, std::span<u8> buf);

  /// Blocking receive from any source; kTimedOut as above.
  Result<RecvInfo> recv_any(std::span<u8> buf);

  /// bbp_MsgAvail: one poll pass; returns the source of a waiting message.
  std::optional<u32> msg_avail();
  /// Check for a waiting message from a specific source (one poll).
  bool msg_avail_from(u32 src);

  /// Length of the next queued message from src without consuming it
  /// (polls once if the queue is empty).
  std::optional<u32> peek_len(u32 src);

  /// Wait until all of this endpoint's outstanding sends are acknowledged;
  /// kTimedOut once cfg.poll_timeout (if nonzero) elapses with slots still
  /// in flight (their ACK toggles were lost -- e.g. a broken ring link).
  Status drain();

  /// Count of in-flight (unacknowledged) slots.
  u32 inflight() const;

  // -- zero-copy rendezvous window (cfg.rndv_window_bytes > 0) --------------
  // A receiver reserves an extent in its OWN window and ships the absolute
  // word address to the sender (inside the ADI's CTS); the sender's ring
  // writes then land the payload directly at that address -- no slot, no
  // descriptor, no staging copy on either side. Completion is signaled by
  // the sender's FIN packet on the regular slot path, which the ring's
  // per-sender write ordering guarantees arrives after the payload words.

  /// Reserve `bytes` in my window (first fit). kNoSpace when fragmented,
  /// full or no window is configured.
  Result<u32> rndv_reserve(u32 bytes);
  /// Release a reservation made by rndv_reserve (idempotent per extent).
  void rndv_release(u32 addr_words, u32 bytes);
  /// Remote-write `payload` at `addr_words` in a peer's window.
  void rndv_put(u32 addr_words, std::span<const u8> payload);
  /// Read `len` bytes from my window at `addr_words` into `buf` (the host
  /// read MPI semantics require; charged at PIO block-read cost).
  Status rndv_read(u32 addr_words, std::span<u8> buf, u32 len);
  /// Total bytes currently reserved (0 when all rendezvous completed).
  u32 rndv_reserved_bytes() const;

  /// Configured receive mode.
  RecvMode recv_mode() const { return cfg_.recv_mode; }

  /// Publish stats_ into the counter registry under `group` (e.g.
  /// "bbp.rank0"); the harness calls this when counters are enabled.
  void publish_counters(obs::Counters& c, std::string_view group) const;

 private:
  friend class Validator;
  // The validator's tests break one invariant at a time through it, so
  // each check provably fires (tests/bbp_validator_test.cc).
  friend struct EndpointCorrupter;
  struct Slot {
    bool in_use = false;
    u32 seq = 0;
    u32 offset_words = 0;  // absolute word address of payload
    u32 len_bytes = 0;
    DestSet pending;       // receivers that have not acked yet
  };

  struct Incoming {
    u32 src;
    u32 slot;
    u32 seq;
    u32 offset_words;
    u32 len_bytes;
  };

  // -- send side -----------------------------------------------------------
  /// Allocate a slot + payload space; runs GC and (if `block`) waits.
  Result<u32> alloc_slot(u32 len_bytes, bool block);
  /// Reconcile ACK words and reclaim completed slots (FIFO order).
  void collect_garbage();
  /// Post one message to every rank in `dest_list`: kInvalidArg for a rank
  /// out of range, an empty list or a payload above the data partition.
  Status post(std::span<const u32> dest_list, std::span<const u8> payload,
              bool block);

  // -- receive side --------------------------------------------------------
  /// One poll pass over sender s's MESSAGE flag word; enqueues new
  /// arrivals and is true iff it enqueued one (a stale toggle is ACKed,
  /// counted and enqueues nothing).
  bool poll_sender(u32 s);
  /// One poll pass over all senders; true if anything was enqueued.
  bool poll_all();
  /// The first sender, round-robin from rr_next_, with a queued message.
  std::optional<u32> first_queued() const;
  /// Deliver the head of sender `src`'s queue into `buf` and ACK it.
  Result<RecvInfo> deliver(u32 src, std::span<u8> buf);
  /// Toggle my ACK bit for `slot` in sender `src`'s control partition.
  void ack(u32 src, u32 slot);

  u32 data_end() const { return layout_.data_base(me_) + layout_.data_words; }

  /// Every blocking call's wait: spin on ready() for at most poll_timeout,
  /// backing off per recv_mode; false, counting a timeout, once it expired.
  bool wait(const char* site, sim::FnRef<bool()> ready,
            sim::FnRef<void()> stall = {});

  scramnet::MemPort& port_;
  Layout layout_;
  Config cfg_;
  u32 me_;

  // Sender state.
  u32 seq_next_ = 1;
  std::vector<Slot> slot_;
  std::deque<u32> live_;            // slot ids in allocation (FIFO) order
  u32 head_ = 0, tail_ = 0;         // circular data allocator (word offsets,
                                    // absolute addresses within my data part)
  bool data_empty_ = true;
  std::vector<u32> sent_flag_mirror_;  // per receiver: my MESSAGE word value
  std::vector<u32> ack_base_;          // per receiver: last reconciled ACK word

  // Receiver-as-acker state: value of the ACK word I write into each
  // sender's control partition (I am its only writer, so a mirror is exact).
  std::vector<u32> ack_out_mirror_;

  // Receiver state.
  std::vector<u32> seen_msg_;          // per sender: last observed MESSAGE word
  std::vector<u32> slot_seq_;          // per (sender, slot): last seq read (0 = none)
  std::vector<std::deque<Incoming>> inq_;  // per sender, seq-ordered
  std::vector<u32> last_deliv_seq_;    // per sender: last delivered seq (0 = none)
  u32 rr_next_ = 0;                    // round-robin scan position

  // Rendezvous window reservations (my region only), sorted by offset.
  struct RndvExtent {
    u32 off_words;
    u32 words;
  };
  std::vector<RndvExtent> rndv_live_;

  EndpointStats stats_;
};

}  // namespace scrnet::bbp
