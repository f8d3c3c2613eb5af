#include "sim/fiber.h"

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "sim/mapping.h"

#if defined(SCRNET_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(SCRNET_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace scrnet::sim::detail {

// ---------------------------------------------------------------------------
// StackPool
// ---------------------------------------------------------------------------

FiberStack StackPool::acquire() {
  FiberStack s;
  s.guard_bytes = page_bytes();
  s.map_bytes = kProcStackBytes + s.guard_bytes;
  const Region r = take_region(s.map_bytes, /*guard=*/true);
  s.base = r.base;
  ++(r.fresh ? stats_.mapped : stats_.reused);
  ++stats_.live;
#if defined(SCRNET_FIBER_ASAN)
  // A fresh mapping may land where an unmapped allocation left stale
  // shadow; start from a clean slate.
  __asan_unpoison_memory_region(s.limit(), s.usable_bytes());
#endif
  return s;
}

void StackPool::release(const FiberStack& s) {
  assert(s && "releasing an empty stack");
#if defined(SCRNET_FIBER_ASAN)
  // The dead fiber's last frames (fiber entry/exit) never returned, so
  // their shadow poison is still on the stack; scrub it before the next
  // fiber -- or, once unmapped, an unrelated allocation -- lands here.
  __asan_unpoison_memory_region(s.limit(), s.usable_bytes());
#endif
  assert(stats_.live > 0);
  --stats_.live;
  give_region(s.base, s.map_bytes, /*guard=*/true);
}

// ---------------------------------------------------------------------------
// FiberContext
// ---------------------------------------------------------------------------

namespace {
// Entry handoff: run_entry() starts on a brand-new stack with no saved
// registers, so the target/source contexts travel in thread-locals set by
// switch_from() just before the swap. Only the first resume of a context
// reads them.
thread_local FiberContext* g_switch_target = nullptr;
thread_local FiberContext* g_switch_source = nullptr;
}  // namespace

FiberContext::~FiberContext() {
#if defined(SCRNET_FIBER_TSAN)
  if (tsan_owned_) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

#if defined(SCRNET_FIBER_BACKEND_ASM)

// System-V x86-64 cooperative switch: save callee-saved registers plus the
// MXCSR/x87 control words on the suspending stack, publish its %rsp, adopt
// the resuming stack's %rsp, restore, ret. The `ret` consumes either the
// suspended switch's return address or, on first entry, the fabricated
// frame's run_entry slot. No syscall (cf. swapcontext's sigprocmask).
extern "C" void scrnet_fiber_switch_asm(void** save_sp, void* resume_sp);
asm(R"(
.text
.globl scrnet_fiber_switch_asm
.type scrnet_fiber_switch_asm,@function
.align 16
scrnet_fiber_switch_asm:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq  $8, %rsp
    stmxcsr (%rsp)
    fnstcw  4(%rsp)
    movq  %rsp, (%rdi)
    movq  %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw   4(%rsp)
    addq  $8, %rsp
    popq  %r15
    popq  %r14
    popq  %r13
    popq  %r12
    popq  %rbx
    popq  %rbp
    retq
.size scrnet_fiber_switch_asm,.-scrnet_fiber_switch_asm
)");

void FiberContext::prepare(Entry entry, void* arg, const FiberStack& stack) {
  entry_ = entry;
  arg_ = arg;
#if defined(SCRNET_FIBER_ASAN)
  stack_bottom_ = stack.limit();
  stack_size_ = stack.usable_bytes();
  fake_stack_ = nullptr;
#endif
#if defined(SCRNET_FIBER_TSAN)
  if (tsan_owned_) __tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = __tsan_create_fiber(0);
  tsan_owned_ = true;
#endif
  // Fabricate the frame scrnet_fiber_switch_asm expects to pop. Keep the
  // run_entry slot 16-aligned so that after `ret`, %rsp % 16 == 8 -- the
  // ABI state at any function entry.
  uintptr_t top16 = reinterpret_cast<uintptr_t>(stack.top()) & ~uintptr_t{15};
  auto* entry_slot = reinterpret_cast<uintptr_t*>(top16 - 16);
  entry_slot[1] = 0;  // run_entry never returns; 0 also stops unwinders
  entry_slot[0] = reinterpret_cast<uintptr_t>(&FiberContext::run_entry);
  uintptr_t* frame = entry_slot - 7;  // fpctl, r15, r14, r13, r12, rbx, rbp
  std::memset(frame, 0, 7 * sizeof(uintptr_t));
  unsigned mxcsr;
  unsigned short fcw;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  std::memcpy(frame, &mxcsr, sizeof(mxcsr));
  std::memcpy(reinterpret_cast<char*>(frame) + 4, &fcw, sizeof(fcw));
  sp_ = frame;
}

#else  // SCRNET_FIBER_BACKEND_UCONTEXT

void FiberContext::prepare(Entry entry, void* arg, const FiberStack& stack) {
  entry_ = entry;
  arg_ = arg;
#if defined(SCRNET_FIBER_ASAN)
  stack_bottom_ = stack.limit();
  stack_size_ = stack.usable_bytes();
  fake_stack_ = nullptr;
#endif
#if defined(SCRNET_FIBER_TSAN)
  if (tsan_owned_) __tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = __tsan_create_fiber(0);
  tsan_owned_ = true;
#endif
  if (getcontext(&ctx_) != 0) std::abort();
  ctx_.uc_stack.ss_sp = stack.limit();
  ctx_.uc_stack.ss_size = stack.usable_bytes();
  ctx_.uc_link = nullptr;  // run_entry never returns
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&FiberContext::run_entry), 0);
}

#endif  // backend

void FiberContext::run_entry() {
  FiberContext* self = g_switch_target;
#if defined(SCRNET_FIBER_ASAN)
  // First instants on this stack: complete the switch and learn the
  // resumer's stack extents so switches back can be annotated.
  FiberContext* source = g_switch_source;
  const void* prev_bottom = nullptr;
  usize prev_size = 0;
  __sanitizer_finish_switch_fiber(nullptr, &prev_bottom, &prev_size);
  if (source != nullptr && source->stack_bottom_ == nullptr) {
    source->stack_bottom_ = prev_bottom;
    source->stack_size_ = prev_size;
  }
#endif
  self->entry_(self->arg_);
  std::abort();  // the entry's contract is to switch away dying, not return
}

void FiberContext::switch_from(FiberContext& from, bool from_dying) {
  assert(this != &from && "switching a context into itself");
  g_switch_target = this;
  g_switch_source = &from;
#if defined(SCRNET_FIBER_ASAN)
  __sanitizer_start_switch_fiber(from_dying ? nullptr : &from.fake_stack_,
                                 stack_bottom_, stack_size_);
#else
  (void)from_dying;
#endif
#if defined(SCRNET_FIBER_TSAN)
  // A context prepare() did not create is the kernel's: it runs as
  // whichever thread or fiber called Simulation::run. Re-read it on every
  // switch, so a simulation torn down on another thread still switches
  // back to the right one.
  if (!from.tsan_owned_) from.tsan_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(SCRNET_FIBER_BACKEND_ASM)
  scrnet_fiber_switch_asm(&from.sp_, sp_);
#else
  if (swapcontext(&from.ctx_, &ctx_) != 0) std::abort();
#endif
  // Control is back in `from` (somebody switch_from'd into it).
#if defined(SCRNET_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(from.fake_stack_, nullptr, nullptr);
#endif
}

}  // namespace scrnet::sim::detail
