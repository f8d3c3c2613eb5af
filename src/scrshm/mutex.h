// Lamport's bakery lock on SCRAMNet replicated memory.
//
// Mutual exclusion on a non-coherent reflective memory cannot use
// compare-and-swap (there is none) or multi-writer words (writes race on
// the ring). The bakery algorithm needs neither: every process writes only
// its own `choosing` and `number` words, and its correctness is proven for
// non-atomic (safe/regular) registers. That proof also assumes a write is
// visible to every reader once the writer moves on, which a replicated
// word is not: it reaches remote banks only after propagating. Without
// help, two processes can each read the other's `choosing` and `number`
// before the other's doorway writes arrive, and both enter. lock()
// therefore fences (MemPort::fence) after writing `choosing` = 1 and after
// writing `choosing` = 0; per-sender FIFO makes the second fence cover
// `number` too. This is the class of mechanism the paper's reference [10]
// (Menke, Moir, Ramamurthy, PODC'97, "Synchronization Mechanisms for
// SCRAMNet+ Systems") studies.
//
// Layout: 2*N words from an Arena -- choosing[i], number[i], writer = i.
#pragma once

#include "scramnet/port.h"
#include "scrshm/layout.h"

namespace scrnet::scrshm {

class BakeryMutex {
 public:
  /// All participants must construct with the same arena state and count.
  BakeryMutex(scramnet::MemPort& port, Arena& arena, u32 procs, u32 me)
      : port_(port), procs_(procs), me_(me),
        choosing_(arena.alloc(procs)), number_(arena.alloc(procs)) {
    if (me >= procs) throw std::invalid_argument("scrshm: rank out of range");
  }

  void lock() {
    // Doorway: pick a ticket one larger than every visible ticket.
    port_.write_u32(choosing_ + me_, 1);
    port_.fence();
    u32 max = 0;
    for (u32 j = 0; j < procs_; ++j) {
      const u32 n = port_.read_u32(number_ + j);
      if (n > max) max = n;
    }
    my_number_ = max + 1;
    port_.write_u32(number_ + me_, my_number_);
    port_.write_u32(choosing_ + me_, 0);
    port_.fence();

    // Wait for every earlier ticket (lexicographic (number, id) order).
    for (u32 j = 0; j < procs_; ++j) {
      if (j == me_) continue;
      port_.spin_until("scrshm.bakery.choosing", 0,
                       [&] { return port_.read_u32(choosing_ + j) == 0; });
      port_.spin_until("scrshm.bakery.ticket", 0, [&] {
        const u32 nj = port_.read_u32(number_ + j);
        return nj == 0 || nj > my_number_ || (nj == my_number_ && j > me_);
      });
    }
  }

  void unlock() {
    my_number_ = 0;
    port_.write_u32(number_ + me_, 0);
  }

  /// RAII guard.
  class Guard {
   public:
    explicit Guard(BakeryMutex& m) : m_(m) { m_.lock(); }
    ~Guard() { m_.unlock(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    BakeryMutex& m_;
  };

 private:
  scramnet::MemPort& port_;
  u32 procs_, me_;
  u32 choosing_, number_;  // word addresses of the per-process arrays
  u32 my_number_ = 0;
};

}  // namespace scrnet::scrshm
