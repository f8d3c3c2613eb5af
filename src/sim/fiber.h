// Stackful fibers for the simulation kernel.
//
// A simulated Process runs on a user-level fiber: a private stack (a
// guarded region from sim/mapping.h, recycled across spawn/exit) plus a
// saved CPU context. Handing control between the kernel and a process is
// one cooperative context swap on the kernel thread -- no mutex, no
// condvar, no kernel scheduling -- which is what makes Process::delay()
// cost nanoseconds instead of microseconds (BM_SimProcessSwitch).
//
// Two interchangeable switch backends sit behind FiberContext:
//
//  * asm (default on x86-64): a ~20-instruction System-V switch that saves
//    the callee-saved registers and the FP control words on the suspending
//    stack and swaps %rsp. glibc's swapcontext() performs a sigprocmask
//    system call per switch (~200 ns here); the simulator never changes
//    signal masks, so the syscall buys nothing and is skipped.
//  * ucontext (other POSIX targets, or -DSCRNET_SIM_UCONTEXT_FIBERS=ON):
//    portable getcontext/makecontext/swapcontext.
//
// Both backends carry the __sanitizer_start_switch_fiber /
// __sanitizer_finish_switch_fiber annotations, so AddressSanitizer tracks
// the live stack across swaps and fiber builds run clean under ASan. Under
// ThreadSanitizer every prepared context is also a TSan fiber, entered with
// __tsan_switch_to_fiber just before each swap, so TSan keeps one shadow
// stack per process and reports races with the process bodies' own frames.
#pragma once

#include <cstddef>

#include "common/types.h"

#if defined(__x86_64__) && !defined(SCRNET_SIM_UCONTEXT_FIBERS)
#define SCRNET_FIBER_BACKEND_ASM 1
#else
#define SCRNET_FIBER_BACKEND_UCONTEXT 1
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define SCRNET_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCRNET_FIBER_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define SCRNET_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SCRNET_FIBER_TSAN 1
#endif
#endif

namespace scrnet::sim::detail {

/// Usable bytes of every process stack; its mapping adds one guard page.
inline constexpr usize kProcStackBytes = 256 * 1024;

/// One mapped fiber stack. The lowest page is PROT_NONE: running off the
/// end of the usable region faults immediately instead of silently
/// corrupting an adjacent stack.
struct FiberStack {
  void* base = nullptr;   // mapping base; the guard page starts here
  usize map_bytes = 0;    // guard + usable
  usize guard_bytes = 0;  // PROT_NONE prefix

  void* limit() const { return static_cast<char*>(base) + guard_bytes; }
  void* top() const { return static_cast<char*>(base) + map_bytes; }
  usize usable_bytes() const { return map_bytes - guard_bytes; }
  explicit operator bool() const { return base != nullptr; }
};

/// One simulation's counts over the fiber stacks it takes from and gives
/// back to the thread's cache (sim/mapping.h); spawn/exit churn maps
/// nothing once the cache is warm (BM_SimSpawnTeardown, BM_SimSetup).
class StackPool {
 public:
  struct Stats {
    usize mapped = 0;  // stacks the cache could not supply, mapped afresh
    usize reused = 0;  // acquires served from the cache
    usize live = 0;    // stacks currently owned by a fiber
  };

  FiberStack acquire();
  void release(const FiberStack& s);

  const Stats& stats() const { return stats_; }

 private:
  Stats stats_;
};

/// A suspendable CPU context: either the kernel's (default-constructed,
/// its stack is whatever thread called Simulation::run) or a fiber's
/// (prepare()d onto a FiberStack). switch_from() transfers control.
class FiberContext {
 public:
  using Entry = void (*)(void* arg);

  FiberContext() = default;
  ~FiberContext();
  FiberContext(const FiberContext&) = delete;
  FiberContext& operator=(const FiberContext&) = delete;

  /// Arm this context so the first switch_from() into it runs entry(arg)
  /// on `stack`. entry must never return: its final act is a
  /// switch_from(self, /*from_dying=*/true) back to its resumer.
  void prepare(Entry entry, void* arg, const FiberStack& stack);

  /// Suspend the currently-executing context into `from` and resume
  /// *this. Returns when somebody later switches back into `from`.
  /// `from_dying` means `from`'s stack is dead after this swap (fiber
  /// exit): the sanitizer is told to retire it instead of keeping its
  /// fake-stack shadow alive.
  void switch_from(FiberContext& from, bool from_dying = false);

 private:
  [[noreturn]] static void run_entry();

#if defined(SCRNET_FIBER_BACKEND_ASM)
  void* sp_ = nullptr;  // saved stack pointer while suspended
#else
  ucontext_t ctx_ = {};
#endif
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
#if defined(SCRNET_FIBER_ASAN)
  void* fake_stack_ = nullptr;        // ASan fake-stack handle while suspended
  const void* stack_bottom_ = nullptr;  // this context's stack, for ASan
  usize stack_size_ = 0;
#endif
#if defined(SCRNET_FIBER_TSAN)
  void* tsan_fiber_ = nullptr;  // the TSan fiber this context runs as
  bool tsan_owned_ = false;     // created by prepare(); destroyed with *this
#endif
};

}  // namespace scrnet::sim::detail
