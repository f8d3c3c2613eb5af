// Allocation-free event storage for the DES kernel.
//
// Two pieces, both tuned for the post/step cycle that every simulated
// experiment pays per event:
//
//  * EventNode -- a pooled, fixed-size node whose callable lives in an
//    inline small-buffer (kInlineBytes). push() accepts only callables
//    that fit, so an oversize capture list is a compile error, not a heap
//    allocation. Nodes are recycled through a freelist, so steady-state
//    posting never allocates at all.
//
//  * EventQueue -- a two-level calendar queue. Near-future events land in
//    one of kBuckets fixed-width time buckets (unsorted append, O(1));
//    events beyond the bucket horizon go to a sorted overflow heap and
//    migrate into buckets as the window advances. The bucket currently
//    being drained is kept as a small binary heap so same-bucket events
//    pop in exact (time, sequence) order. Every post goes into the
//    calendar and every pop comes off that heap. The one side path is
//    take_if_next(): a process resume due strictly before everything
//    queued is counted but never stored (docs/simulator.md, "Process
//    scheduling"). The calendar itself stays because a plain heap measured
//    slower on the event-bound workload (docs/simulator.md, "Event queue
//    internals").
//
// Ordering contract (identical to the priority_queue it replaced): events
// execute in ascending time, ties broken by post order. This is what makes
// every run bit-reproducible, and tests/sim_queue_test.cc locks it in.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"
#include "common/units.h"

namespace scrnet::sim {

class EventQueue {
 private:
  struct Node;

 public:
  /// Inline storage for the type-erased callable. 48 bytes covers every
  /// capture list in the tree (largest today: exactly 48 bytes, the chunk
  /// lambda of RdmaFabric::rdma_put).
  static constexpr usize kInlineBytes = 48;

  /// The callables push() accepts: invocable, at most kInlineBytes, and no
  /// more aligned than std::max_align_t.
  template <typename F>
  static constexpr bool kFitsInline =
      std::is_invocable_v<std::decay_t<F>&> &&
      sizeof(std::decay_t<F>) <= kInlineBytes &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t);

  /// An event popped but not yet run; opaque outside the kernel. Carries
  /// the invoke pointer so running it never has to chase node->invoke.
  struct Popped {
    SimTime t;
    Node* node;
    void (*invoke)(void*);
  };

  struct Stats {
    u64 posted = 0;          // total events enqueued
    u64 inline_stored = 0;   // callables that fit the inline buffer
    u64 heap_fallback = 0;   // heap-stored callables: 0 by construction
    u64 pool_chunks = 0;     // node-pool growth events (chunk allocations)
    u64 overflow_posted = 0; // events that landed beyond the bucket horizon
    u64 overflow_scanned = 0; // overflow entries migrated into buckets
    u64 max_calendar = 0;    // high-water mark of events in the calendar
  };

  EventQueue() : buckets_(kBuckets) { bitmap_.fill(0); }

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  ~EventQueue() {
    for (auto& e : active_) destroy_node(e.node);
    for (auto& b : buckets_)
      for (auto& e : b) destroy_node(e.node);
    for (auto& e : overflow_) destroy_node(e.node);
  }

  /// Enqueue `fn` to run at absolute time `t`. Ties with already-queued
  /// events break in favor of the earlier push.
  template <typename F>
    requires kFitsInline<F>
  [[gnu::always_inline]] inline void push(SimTime t, F&& fn) {
    Node* n = acquire();
    bind(n, std::forward<F>(fn));
    enqueue(Entry{t, seq_++, n});
  }

  bool empty() const { return calendar_live_ == 0; }
  usize size() const { return calendar_live_; }

  /// Time of the earliest queued event. Only valid when !empty().
  SimTime next_time() {
    const bool have = prime();
    assert(have && "next_time() on an empty queue");
    (void)have;
    return active_.front().t;
  }

  /// Pop the earliest event without running it (the caller advances the
  /// clock first, so the callable observes its own timestamp as now()).
  bool pop(Popped* out) {
    if (!prime()) return false;
    std::pop_heap(active_.begin(), active_.end(), EntryAfter{});
    const Entry e = active_.back();
    active_.pop_back();
    --calendar_live_;
    ++executed_;
    *out = Popped{e.t, e.node, e.node->invoke};
    return true;
  }

  /// Account for an event at `t` that the caller runs itself instead of
  /// posting: true when `t` is strictly earlier than every queued event,
  /// so the pop after its push would return it at once. It takes its
  /// sequence number and counts as posted and executed, and the calendar's
  /// high-water mark sees it as a push would; the queue itself is
  /// untouched. False when a queued event is due at or before `t`.
  bool take_if_next(SimTime t) {
    if (prime() && active_.front().t <= t) return false;
    ++seq_;
    ++executed_;
    if (calendar_live_ + 1 > stats_.max_calendar) stats_.max_calendar = calendar_live_ + 1;
    return true;
  }

  /// Run a popped event and recycle its node. Invoke also destroys the
  /// callable (fused at bind time); the node goes back on the freelist even
  /// if the callable throws (ProcessError unwinds through here) -- the
  /// guard runs after the callable's frame is gone.
  void run_and_release(const Popped& ev) {
    ReleaseGuard guard{this, ev.node};
    ev.invoke(ev.node->buf);
  }

  /// Total events ever popped for execution.
  u64 executed() const { return executed_; }

  Stats stats() const {
    Stats s = stats_;
    s.posted = seq_;
    s.inline_stored = seq_;
    return s;
  }

 private:
  /// Time and sequence live only in the queue's Entry records (one store
  /// fewer each per post); the node is pure callable storage.
  struct Node {
    void (*invoke)(void*);
    void (*destroy)(void*);  // null for trivially destructible callables
    Node* next_free;
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
  };

  struct Entry {
    SimTime t;
    u64 seq;
    Node* node;
  };
  /// Heap comparator: "a sorts after b" -> min-heap on (t, seq).
  struct EntryAfter {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  // Calendar geometry: 2048 buckets of 2^14 ps (~16.4 ns) cover a ~33.6 us
  // near-future window -- wider than every hop/occupancy delay in the
  // device models, so only long host-side waits (IRQ dispatch, MPI layer
  // costs, switchover) take the overflow path.
  static constexpr u32 kBuckets = 2048;
  static constexpr u32 kBucketShift = 14;
  static constexpr SimTime kSpan = static_cast<SimTime>(kBuckets) << kBucketShift;
  static constexpr usize kChunkNodes = 128;

  /// `invoke` runs the callable AND destroys it (fused so the pop path
  /// never inspects `destroy`; for the trivially-destructible callables
  /// this repo posts, the destructor folds away entirely). `destroy` is
  /// only for queue teardown: destruction without invocation.
  template <typename F>
  void bind(Node* n, F&& fn) {
    using Fn = std::decay_t<F>;
    new (static_cast<void*>(n->buf)) Fn(std::forward<F>(fn));
    n->invoke = [](void* p) {
      Fn* f = static_cast<Fn*>(p);
      DestroyGuard<Fn> g{f};  // destroyed even if the callable throws
      (*f)();
    };
    if constexpr (std::is_trivially_destructible_v<Fn>) {
      n->destroy = nullptr;
    } else {
      n->destroy = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    }
  }

  Node* acquire() {
    if (free_ == nullptr) grow_pool();
    Node* n = free_;
    free_ = n->next_free;
    return n;
  }

  [[gnu::cold]] [[gnu::noinline]] void grow_pool() {
    chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    Node* chunk = chunks_.back().get();
    for (usize i = 0; i < kChunkNodes; ++i) {
      chunk[i].next_free = free_;
      free_ = &chunk[i];
    }
    ++stats_.pool_chunks;
  }

  template <typename Fn>
  struct DestroyGuard {
    Fn* f;
    ~DestroyGuard() { f->~Fn(); }
  };

  /// Return a node whose callable has already been destroyed (by the fused
  /// invoke) to the freelist.
  void release(Node* n) {
    n->next_free = free_;
    free_ = n;
  }

  /// Teardown path: destroy a never-invoked callable, then recycle.
  void destroy_node(Node* n) {
    if (n->destroy != nullptr) n->destroy(n->buf);
    release(n);
  }

  struct ReleaseGuard {
    EventQueue* q;
    Node* n;
    ~ReleaseGuard() { q->release(n); }
  };

  void enqueue(const Entry& e) {
    ++calendar_live_;
    if (calendar_live_ > stats_.max_calendar) stats_.max_calendar = calendar_live_;
    if (e.t < win_start_) {
      // The window jumped past this time while the clock had not caught up
      // (possible for posts issued right after run_until). Every bucketed
      // event is later, so the active heap keeps global order.
      push_active(e);
      return;
    }
    const u64 off = static_cast<u64>(e.t - win_start_) >> kBucketShift;
    if (off >= kBuckets) {
      overflow_.push_back(e);
      std::push_heap(overflow_.begin(), overflow_.end(), EntryAfter{});
      ++stats_.overflow_posted;
      return;
    }
    const u32 idx = static_cast<u32>(off);
    if (idx < sweep_) {
      // This bucket was already drained into the active heap; join it there.
      push_active(e);
      return;
    }
    bucket_put(idx, e);
  }

  void push_active(const Entry& e) {
    active_.push_back(e);
    std::push_heap(active_.begin(), active_.end(), EntryAfter{});
  }

  void bucket_put(u32 idx, const Entry& e) {
    buckets_[idx].push_back(e);
    bitmap_[idx >> 6] |= u64{1} << (idx & 63);
    ++window_live_;
  }

  /// Move overflow events now inside the window into their buckets, one
  /// pop each: O(m log n) for m migrants out of n, whatever the heap holds.
  void migrate_overflow() {
    const SimTime horizon = win_start_ + kSpan;
    while (!overflow_.empty() && overflow_.front().t < horizon) {
      std::pop_heap(overflow_.begin(), overflow_.end(), EntryAfter{});
      const Entry e = overflow_.back();
      overflow_.pop_back();
      bucket_put(static_cast<u32>(static_cast<u64>(e.t - win_start_) >> kBucketShift), e);
      ++stats_.overflow_scanned;
    }
  }

  /// First non-empty bucket at or after `from`; kBuckets if none.
  u32 next_set_bucket(u32 from) const {
    if (from >= kBuckets) return kBuckets;
    u32 w = from >> 6;
    u64 word = bitmap_[w] & (~u64{0} << (from & 63));
    while (word == 0) {
      if (++w == kBuckets / 64) return kBuckets;
      word = bitmap_[w];
    }
    return (w << 6) + static_cast<u32>(std::countr_zero(word));
  }

  /// Ensure the globally-earliest event sits on the active heap. Returns
  /// false when the queue is fully empty.
  bool prime() {
    if (!active_.empty()) return true;
    while (true) {
      if (window_live_ == 0) {
        if (overflow_.empty()) return false;
        // Skip empty windows entirely: restart the window at the earliest
        // overflow time and pull everything inside the new horizon.
        win_start_ = overflow_.front().t;
        sweep_ = 0;
        migrate_overflow();
      }
      const u32 idx = next_set_bucket(sweep_);
      assert(idx < kBuckets && "window_live_ out of sync with bitmap");
      active_.swap(buckets_[idx]);
      std::make_heap(active_.begin(), active_.end(), EntryAfter{});
      bitmap_[idx >> 6] &= ~(u64{1} << (idx & 63));
      window_live_ -= active_.size();
      sweep_ = idx + 1;
      if (sweep_ == kBuckets && window_live_ == 0) {
        // Window exhausted: advance and refill from overflow so posts keep
        // using bucket addressing relative to the live window.
        win_start_ += kSpan;
        sweep_ = 0;
        migrate_overflow();
      }
      if (!active_.empty()) return true;
    }
  }

  u64 seq_ = 0;        // next insertion sequence == total events posted
  u64 executed_ = 0;   // total events popped for execution
  usize calendar_live_ = 0;  // events in active_/buckets_/overflow_
  Stats stats_;

  std::vector<Entry> active_;                 // heap: the bucket being drained
  std::vector<std::vector<Entry>> buckets_;   // fixed-width near-future buckets
  std::array<u64, kBuckets / 64> bitmap_{};   // non-empty-bucket index
  std::vector<Entry> overflow_;               // heap: beyond-horizon events
  SimTime win_start_ = 0;                     // time of bucket 0
  u32 sweep_ = 0;                             // next bucket index to drain
  usize window_live_ = 0;                     // events currently in buckets

  Node* free_ = nullptr;
  std::vector<std::unique_ptr<Node[]>> chunks_;
};

}  // namespace scrnet::sim
