// Single-writer seqlock: consistent multi-word publication on replicated
// memory -- the idiom real SCRAMNet deployments used to publish state
// vectors (aircraft state, telemetry frames) that readers must never see
// torn.
//
// Writer (exactly one process): seq -> odd, payload words, seq -> even.
// Reader (anyone): read seq, payload, seq again; retry on odd/changed.
// Per-sender FIFO propagation means a reader's replica replays the
// writer's sequence in order, so the even/odd protocol is sound on the
// ring just as it is on a cache-coherent machine.
#pragma once

#include <span>

#include "scramnet/port.h"
#include "scrshm/layout.h"

namespace scrnet::scrshm {

class SeqLock {
 public:
  /// `payload_words` data words; only `writer` may call publish().
  SeqLock(scramnet::MemPort& port, Arena& arena, u32 payload_words, u32 writer)
      : port_(port), writer_(writer), words_(payload_words),
        seq_addr_(arena.alloc(1)), data_addr_(arena.alloc(payload_words)) {}

  /// Publish a new version. Only the designated writer process may call
  /// this (single-writer discipline; not enforceable across nodes here).
  void publish(std::span<const u32> data) {
    assert(data.size() == words_);
    seq_ += 1;  // odd: in progress
    port_.write_u32(seq_addr_, seq_);
    port_.write_block(data_addr_, data);
    seq_ += 1;  // even: stable
    port_.write_u32(seq_addr_, seq_);
  }

  /// Read a consistent snapshot; returns the (even) version number, 0 if
  /// nothing has ever been published. Spins through in-progress versions.
  u32 snapshot(std::span<u32> out) {
    assert(out.size() == words_);
    u32 s1 = 0;
    port_.spin_until("scrshm.seqlock", 0, [&] {
      s1 = port_.read_u32(seq_addr_);
      if (s1 & 1u) return false;
      port_.read_block(data_addr_, out);
      return port_.read_u32(seq_addr_) == s1;
    });
    return s1;
  }

  /// Latest version number visible locally (cheap freshness probe).
  u32 version() { return port_.read_u32(seq_addr_) & ~1u; }

 private:
  scramnet::MemPort& port_;
  u32 writer_;
  u32 words_;
  u32 seq_addr_, data_addr_;
  u32 seq_ = 0;  // writer's local mirror
};

}  // namespace scrnet::scrshm
