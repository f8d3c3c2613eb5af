// Anonymous memory from the OS, for ring banks and fiber stacks: the one
// place in src/ that maps, guards, keeps and unmaps it (docs/simulator.md,
// "Mapped memory").
#pragma once

#include "common/types.h"

namespace scrnet::sim {

/// The OS page size; a guard is one page.
usize page_bytes();

/// Largest region the cache keeps (16 nodes x the default 4 MiB bank).
inline constexpr usize kMaxCachedBytes = usize{64} << 20;

struct Region {
  void* base = nullptr;
  bool fresh = false;  // mapped by this take, not found in the cache
};

/// `bytes` of private read/write memory whose lowest page is PROT_NONE
/// when `guard`: a kept region of exactly that size and guard, which holds
/// what its giver left, else a fresh all-zero mapping. Throws
/// std::system_error with errno, naming `bytes`, when the OS refuses.
Region take_region(usize bytes, bool guard);

/// Give back a region take_region returned for the same `bytes` and
/// `guard`: kept while this thread's cache has room, else unmapped.
void give_region(void* base, usize bytes, bool guard);

}  // namespace scrnet::sim
