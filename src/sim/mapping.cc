#include "sim/mapping.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string>
#include <system_error>

namespace scrnet::sim {

namespace {

constexpr usize kKeptPerKind = 16;

/// One thread's finished regions, [guard], most recently kept last. It
/// needs no lock: a sweep worker runs one simulation at a time
/// (docs/sweep.md, contract 2). The thread's exit unmaps them, so no Ring
/// or Simulation may outlive its thread's thread_locals (none is static).
struct Cache {
  struct Slot {
    void* base;
    usize bytes;
  };
  Slot kept[2][kKeptPerKind] = {};
  usize n[2] = {};

  Cache() = default;
  ~Cache() {
    for (int g = 0; g < 2; ++g)
      for (usize i = 0; i < n[g]; ++i) munmap(kept[g][i].base, kept[g][i].bytes);
  }
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;
};

thread_local Cache t_cache;

[[noreturn]] void refuse(usize bytes) {
  throw std::system_error(errno, std::generic_category(),
                          std::string("cannot map ").append(std::to_string(bytes)).append(" bytes"));
}

}  // namespace

usize page_bytes() {
  static const usize bytes = static_cast<usize>(sysconf(_SC_PAGESIZE));
  return bytes;
}

Region take_region(usize bytes, bool guard) {
  Cache::Slot* kept = t_cache.kept[guard];
  usize& n = t_cache.n[guard];
  for (usize i = n; i-- > 0;) {
    if (kept[i].bytes != bytes) continue;
    void* base = kept[i].base;
    std::copy(kept + i + 1, kept + n, kept + i);
    --n;
    return {base, false};
  }
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) refuse(bytes);
  if (guard && mprotect(mem, page_bytes(), PROT_NONE) != 0) {
    munmap(mem, bytes);  // a successful munmap leaves errno alone
    refuse(bytes);
  }
  return {mem, true};
}

void give_region(void* base, usize bytes, bool guard) {
  usize& n = t_cache.n[guard];
  if (bytes <= kMaxCachedBytes && n < kKeptPerKind)
    t_cache.kept[guard][n++] = {base, bytes};
  else
    munmap(base, bytes);
}

}  // namespace scrnet::sim
