// Dissemination barrier on replicated shared memory.
//
// log2(N) rounds; in round r, process i signals (i + 2^r) mod N and waits
// for (i - 2^r) mod N. Every flag word has a single writer and carries the
// barrier *epoch*, so no flag ever needs resetting (monotone values are
// stale-read-proof on the ring).
//
// Layout: N * rounds words, writer of word (i, r) = process i.
#pragma once

#include <bit>

#include "scramnet/port.h"
#include "scrshm/layout.h"

namespace scrnet::scrshm {

class DisseminationBarrier {
 public:
  DisseminationBarrier(scramnet::MemPort& port, Arena& arena, u32 procs, u32 me)
      : port_(port), procs_(procs), me_(me),
        rounds_(procs > 1 ? static_cast<u32>(std::bit_width(procs - 1)) : 0),
        flags_(arena.alloc(procs * std::max(rounds_, 1u))) {
    if (me >= procs) throw std::invalid_argument("scrshm: rank out of range");
  }

  void wait() {
    ++epoch_;
    for (u32 r = 0; r < rounds_; ++r) {
      const u32 dist = 1u << r;
      const u32 peer = (me_ + procs_ - dist) % procs_;  // I wait on this one
      // Signal my round-r flag with the current epoch...
      port_.write_u32(flag_addr(me_, r), epoch_);
      // ...and wait until my predecessor reached this round of this epoch.
      port_.spin_until("scrshm.barrier", 0,
                       [&] { return port_.read_u32(flag_addr(peer, r)) >= epoch_; });
    }
  }

  u32 epoch() const { return epoch_; }
  u32 rounds() const { return rounds_; }

 private:
  u32 flag_addr(u32 proc, u32 round) const { return flags_ + proc * rounds_ + round; }

  scramnet::MemPort& port_;
  u32 procs_, me_, rounds_;
  u32 flags_;
  u32 epoch_ = 0;
};

}  // namespace scrnet::scrshm
