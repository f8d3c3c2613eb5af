// Host-time probes around the simulator's public entry points.
//
// Phases splits one harness call into build (call -> first rank-body entry),
// run (first entry -> last exit) and teardown (last exit -> return) by
// timing the benchmark's own rank bodies; it also snapshots the kernel's
// public counters at the last exit. Recorder keeps traced spans in memory:
// the harness call with its three phases as children, and every protocol
// call a rank body makes, each with host ns and virtual ps. Host time of a
// protocol call includes other fibers' work, so only the phases carry a
// host-time attribution.
#pragma once

#include <chrono>
#include <vector>

#include "sim/simulation.h"

namespace perfbench {

using scrnet::SimTime;
using scrnet::u32;
using scrnet::u64;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline scrnet::i64 host_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

/// One traced interval. `parent` is 0 for a root span.
struct Span {
  const char* name;
  u64 sim;
  u64 id;
  u64 parent;
  scrnet::i64 host_t0_ns, host_t1_ns;
  SimTime v_t0_ps, v_t1_ps;
};

/// Span store for the traced run; disabled (and free) in the untraced run.
struct Recorder {
  bool on = false;
  u64 sim = 0;      // id of the simulation being traced
  u64 run_span = 0; // id of its run phase: the parent of protocol calls
  u64 next_id = 1;
  std::vector<Span> spans;

  void add(u64 id, const char* name, u64 parent, Clock::time_point h0,
           Clock::time_point h1, SimTime v0, SimTime v1) {
    spans.push_back(Span{name, sim, id, parent, host_ns(h0), host_ns(h1), v0, v1});
  }
};

Recorder& recorder();

/// Record one protocol call made from a rank body.
template <typename F>
decltype(auto) traced(const char* name, const scrnet::sim::Process& p, F&& f) {
  struct Guard {
    const char* name;
    const scrnet::sim::Process* p;
    Clock::time_point h0;
    SimTime v0;
    ~Guard() {
      if (p == nullptr) return;
      Recorder& r = recorder();
      r.add(r.next_id++, name, r.run_span, h0, Clock::now(), v0, p->now());
    }
  };
  Guard g{name, recorder().on ? &p : nullptr, {}, 0};
  if (g.p != nullptr) {
    g.h0 = Clock::now();
    g.v0 = p.now();
  }
  return f();
}

/// Phase clock for one harness call driven through the benchmark's own
/// rank bodies.
class Phases {
 public:
  /// Open a call whose rank bodies carry `ranks` Rank markers (0 when the
  /// bodies belong to the library, as with workload::run).
  void begin(u32 ranks) {
    ranks_ = ranks;
    Recorder& r = recorder();
    if (r.on) {
      ++r.sim;
      id_ = r.next_id;
      r.next_id += 4;  // call, build, run, teardown
      r.run_span = id_ + 2;
    }
    call_ = Clock::now();
  }

  /// First entry into simulated work (a rank body, or the kernel's run loop
  /// for simulations without processes).
  void enter(SimTime v) {
    if (entered_++ != 0) return;
    first_entry_ = Clock::now();
    v_first_ = v;
  }
  /// One body exited; the last one snapshots the kernel counters.
  void leave(const scrnet::sim::Simulation& s, SimTime v) {
    if (++exited_ != ranks_) return;
    last_exit_ = Clock::now();
    v_last_ = v;
    events = s.events_executed();
    queue = s.queue_stats();
    stacks = s.stack_stats();
    hooked = true;
  }

  /// RAII marker placed at the top of every rank body.
  class Rank {
   public:
    Rank(Phases& ph, scrnet::sim::Process& p) : ph_(ph), p_(p) { ph_.enter(p.now()); }
    ~Rank() { ph_.leave(p_.simulation(), p_.now()); }
    Rank(const Rank&) = delete;
    Rank& operator=(const Rank&) = delete;

   private:
    Phases& ph_;
    scrnet::sim::Process& p_;
  };

  /// Close the call; records the phase spans when tracing.
  void end(SimTime makespan) {
    ret_ = Clock::now();
    Recorder& r = recorder();
    if (!r.on) return;
    r.add(id_, "harness.call", 0, call_, ret_, 0, makespan);
    if (!hooked) return;
    r.add(id_ + 1, "harness.build", id_, call_, first_entry_, 0, v_first_);
    r.add(id_ + 2, "harness.run", id_, first_entry_, last_exit_, v_first_, v_last_);
    r.add(id_ + 3, "harness.teardown", id_, last_exit_, ret_, v_last_, makespan);
  }

  double call_ms() const { return ms_between(call_, ret_); }
  double build_ms() const { return ms_between(call_, first_entry_); }
  double run_ms() const { return ms_between(first_entry_, last_exit_); }
  double teardown_ms() const { return ms_between(last_exit_, ret_); }

  bool hooked = false;  // every rank body ran to its exit
  u64 events = 0;
  scrnet::sim::EventQueue::Stats queue{};
  scrnet::sim::detail::StackPool::Stats stacks{};

 private:
  u32 ranks_ = 0, entered_ = 0, exited_ = 0;
  u64 id_ = 0;
  Clock::time_point call_{}, first_entry_{}, last_exit_{}, ret_{};
  SimTime v_first_ = 0, v_last_ = 0;
};

}  // namespace perfbench
