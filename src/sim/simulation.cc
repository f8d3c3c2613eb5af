#include "sim/simulation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <sstream>

#include "obs/sink.h"
#include "obs/trace.h"

namespace scrnet::sim {

namespace {
/// Internal exception used to unwind a process context (fiber stack or
/// hosted thread) when the Simulation is destroyed while the process is
/// still blocked. User destructors on the process stack run normally.
struct ProcessCancelled {};

/// SimConfig::sim_jobs resolution: explicit value wins, else SCRNET_SIM_JOBS,
/// else 1. Clamped to the 64-shard mask width.
u32 resolve_jobs(u32 requested) {
  u32 j = requested;
  if (j == 0) {
    if (const char* env = std::getenv("SCRNET_SIM_JOBS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && v > 0) j = static_cast<u32>(v);
    }
  }
  if (j == 0) j = 1;
  return std::min<u32>(j, 64);
}

u64 next_sim_token() {
  static std::atomic<u64> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Busy-wait hint for the window barrier spin loops.
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}
}  // namespace

// ---------------------------------------------------------------------------
// Process -- backend-neutral surface
// ---------------------------------------------------------------------------

void Process::delay(SimTime dt) {
  assert(dt >= 0 && "negative delay");
  state_ = State::kReady;
  sim_.schedule_resume(*this, shard_->now + dt);
  to_kernel();
  from_kernel_wait();
}

void Process::yield() { delay(0); }

void Process::park() {
  TRACE_SPAN(obs::Layer::kSim, id_, "sim.parked", *this);
  state_ = State::kParked;
  ++park_token_;
  to_kernel();
  from_kernel_wait();
}

SimTime Process::now() const { return shard_->now; }

#if defined(SCRNET_SIM_THREAD_PROCS)

// ---------------------------------------------------------------------------
// Process/dispatch backend: one hosted std::thread per process, exchanged
// with the kernel through a mutex/condvar handshake (SystemC-style). Two OS
// context switches per virtual-time step -- kept as a fallback for tools
// that want real threads (TSan, debuggers); the fiber backend below is the
// default and >10x faster (BM_SimProcessSwitch). The handshake is
// thread-agnostic, so shard workers dispatch hosted processes unmodified.
// ---------------------------------------------------------------------------

Process::Process(Simulation& sim, detail::Shard& shard, u32 id, std::string name,
                 std::function<void(Process&)> body)
    : sim_(sim), shard_(&shard), id_(id), name_(std::move(name)), body_(std::move(body)) {
  thread_ = std::thread([this] { thread_main(); });
}

void Process::thread_main() {
  // The body runs on this hosted thread, not on the kernel/worker thread
  // that holds a ShardScope -- so bind this thread's post/now() routing to
  // the owning shard explicitly. The fiber backend needs no analog: fibers
  // execute on the draining thread and inherit its scope.
  Simulation::tls_ctx_ = Simulation::TlsCtx{sim_.token_, shard_};
  try {
    from_kernel_wait();  // wait for the first dispatch
    body_(*this);
  } catch (const ProcessCancelled&) {
    // Simulation is being torn down: exit without handing control back.
    state_ = State::kFinished;
    return;
  } catch (const std::exception& e) {
    error_ = e.what();
  } catch (...) {
    error_ = "unknown exception";
  }
  state_ = State::kFinished;
  to_kernel();
}

void Process::to_kernel() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    proc_turn_ = false;
  }
  cv_.notify_all();
}

void Process::from_kernel_wait() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return proc_turn_; });
  if (cancelled_) throw ProcessCancelled{};
}

void Simulation::unwind_procs(Shard& s) {
  // Unblock and join any process thread that has not finished.
  for (auto& up : s.procs) {
    Process& p = *up;
    if (!p.thread_.joinable()) continue;
    if (p.state_ != Process::State::kFinished) {
      {
        std::lock_guard<std::mutex> lk(p.mu_);
        p.cancelled_ = true;
        p.proc_turn_ = true;
      }
      p.cv_.notify_all();
    }
    p.thread_.join();
  }
}

void Simulation::dispatch(Process& p) {
  if (p.state_ == Process::State::kFinished) return;  // stale resume after error
  assert(p.state_ == Process::State::kReady && "dispatching a non-ready process");
  {
    std::lock_guard<std::mutex> lk(p.mu_);
    p.state_ = Process::State::kRunning;
    p.proc_turn_ = true;
  }
  p.cv_.notify_all();
  {
    std::unique_lock<std::mutex> lk(p.mu_);
    p.cv_.wait(lk, [&p] { return !p.proc_turn_; });
  }
  if (p.state_ == Process::State::kFinished && !p.error_.empty()) {
    throw ProcessError("process '" + p.name_ + "' failed: " + p.error_);
  }
}

#else  // fiber backend

// ---------------------------------------------------------------------------
// Process/dispatch backend: stackful fibers (sim/fiber.h). The kernel and
// every process of a shard share one OS thread at a time; dispatch/
// to_kernel are plain context swaps, and an exited process returns its
// stack to its shard's pool. A fiber always resumes through its shard's
// kernel context, so shard affinity is preserved no matter which thread
// (worker or coordinator) drains the shard's window.
// ---------------------------------------------------------------------------

Process::Process(Simulation& sim, detail::Shard& shard, u32 id, std::string name,
                 std::function<void(Process&)> body)
    : sim_(sim), shard_(&shard), id_(id), name_(std::move(name)), body_(std::move(body)) {
  // The execution context is created lazily on first dispatch, so a spawn
  // costs no stack until the process actually runs.
}

void Process::fiber_entry(void* self) { static_cast<Process*>(self)->fiber_main(); }

void Process::fiber_main() {
  try {
    if (cancelled_) throw ProcessCancelled{};
    body_(*this);
  } catch (const ProcessCancelled&) {
    // Simulation teardown: the body's frames were unwound above.
  } catch (const std::exception& e) {
    error_ = e.what();
  } catch (...) {
    error_ = "unknown exception";
  }
  state_ = State::kFinished;
  // Final swap out of a dying stack; dispatch() recycles it into the pool.
  shard_->kctx.switch_from(fiber_, /*from_dying=*/true);
  // Unreachable: nothing dispatches a finished process.
}

void Process::to_kernel() { shard_->kctx.switch_from(fiber_); }

void Process::from_kernel_wait() {
  if (cancelled_) throw ProcessCancelled{};
}

void Simulation::unwind_procs(Shard& s) {
  // Unwind any process still blocked mid-body so its destructors run, the
  // same way the thread backend cancels and joins its hosted threads.
  for (auto& up : s.procs) {
    Process& p = *up;
    if (p.state_ == Process::State::kFinished) continue;
    p.cancelled_ = true;
    if (!p.fiber_live_) {
      // Never dispatched: the body never started, nothing to unwind.
      p.state_ = Process::State::kFinished;
      continue;
    }
    p.state_ = Process::State::kReady;
    dispatch(p);
  }
}

void Simulation::dispatch(Process& p) {
  if (p.state_ == Process::State::kFinished) return;  // stale resume after error
  assert(p.state_ == Process::State::kReady && "dispatching a non-ready process");
  Shard& sh = *p.shard_;
  p.state_ = Process::State::kRunning;
  if (!p.fiber_live_) {
    p.stack_ = sh.stacks.acquire();
    p.fiber_.prepare(&Process::fiber_entry, &p, p.stack_);
    p.fiber_live_ = true;
  }
  p.fiber_.switch_from(sh.kctx);  // runs p until it blocks or finishes
  if (p.state_ == Process::State::kFinished) {
    sh.stacks.release(p.stack_);
    p.stack_ = {};
    p.fiber_live_ = false;
    if (!p.error_.empty()) {
      throw ProcessError("process '" + p.name_ + "' failed: " + p.error_);
    }
  }
}

#endif  // backend

// ---------------------------------------------------------------------------
// Simulation -- backend-neutral kernel loop
// ---------------------------------------------------------------------------

Simulation::Simulation(const SimConfig& cfg)
    : token_(next_sim_token()),
      jobs_(resolve_jobs(cfg.sim_jobs)),
      sink_(&obs::Sink::current()),
      home_(0, cfg.proc_stack_bytes) {
  extra_.reserve(jobs_ - 1);
  for (u32 i = 1; i < jobs_; ++i)
    extra_.push_back(std::make_unique<Shard>(i, cfg.proc_stack_bytes));
}

Simulation::~Simulation() {
  stop_workers();
  // Teardown runs on this thread, shard by shard; fiber switches are
  // thread-agnostic, so fibers last suspended on a worker unwind here.
  each_shard([this](Shard& s) { unwind_procs(s); });
}

Process& Simulation::spawn(std::string name, std::function<void(Process&)> body) {
  return spawn_impl(parallel_run_ ? ctx_shard() : home_, std::move(name), std::move(body));
}

Process& Simulation::spawn_on(u32 shard, std::string name,
                              std::function<void(Process&)> body) {
  assert(!parallel_run_ && "spawn_on is a setup-time operation");
  return spawn_impl(shard_at(shard), std::move(name), std::move(body));
}

Process& Simulation::spawn_impl(Shard& sh, std::string name,
                                std::function<void(Process&)> body) {
  const u32 id = sh.id * kProcIdStride + static_cast<u32>(sh.procs.size());
  sh.procs.push_back(std::unique_ptr<Process>(
      new Process(*this, sh, id, std::move(name), std::move(body))));
  Process& p = *sh.procs.back();
  TRACE_INSTANT(obs::Layer::kSim, p.id(), "sim.spawn", *this);
  p.state_ = Process::State::kReady;
  schedule_resume(p, sh.now);
  return p;
}

void Simulation::schedule_resume(Process& p, SimTime t) {
  // Resumes always land on the process's own shard. Cross-shard notify is
  // outside the Signal contract (signals are node-local); the assert keeps
  // a violation from silently racing on a foreign queue.
  assert(!parallel_run_ || p.shard_ == &ctx_shard());
  p.shard_->queue.push(t, [this, &p] { dispatch(p); });
}

void Simulation::check_time_limit() {
  if (time_limit_ > 0 && home_.now > time_limit_) {
    running_ = false;
    throw std::runtime_error("simulation exceeded time limit");
  }
}

void Simulation::check_deadlock() const {
  std::ostringstream parked;
  usize nparked = 0;
  each_shard([&](const Shard& s) {
    for (const auto& up : s.procs) {
      if (up->state_ == Process::State::kParked) {
        if (nparked++) parked << ", ";
        parked << up->name();
      }
    }
  });
  if (nparked > 0) {
    throw DeadlockError("simulation deadlock: " + std::to_string(nparked) +
                        " process(es) parked with no pending events: " + parked.str());
  }
}

void Simulation::run() {
  if (parallel_needed()) {
    run_parallel(/*until=*/-1);
    check_deadlock();
    return;
  }
  // All events (and the process fibers they dispatch) execute on this
  // thread until run() returns, so installing the simulation's sink as the
  // thread-current one routes every TRACE_* hook fired inside to it --
  // even when several simulations run concurrently on sibling threads.
  obs::Sink::Scope obs_scope(*sink_);
  running_ = true;
  if (time_limit_ > 0) {
    while (step()) check_time_limit();
  } else {
    while (step()) {
    }
  }
  running_ = false;
  // A coalesced tail may have applied deliveries past the last event; the
  // run still ends at the last delivery's virtual time.
  if (home_.now < home_.inline_mark) home_.now = home_.inline_mark;
  // Queue drained: every process must have finished, otherwise we deadlocked.
  check_deadlock();
}

bool Simulation::run_until(SimTime t) {
  if (parallel_needed()) {
    run_parallel(t);
    each_shard([&](Shard& s) {
      if (s.now < t) s.now = t;
    });
    bool more = false;
    each_shard([&](Shard& s) { more = more || !s.queue.empty(); });
    return more;
  }
  obs::Sink::Scope obs_scope(*sink_);
  // The caller observes state the moment this returns, so nothing may be
  // applied inline past the boundary (inline_apply_bound honors this cap).
  struct CapReset {
    SimTime* cap;
    ~CapReset() { *cap = kNever; }
  } cap_reset{&home_.inline_cap};
  home_.inline_cap = t + 1;
  while (!home_.queue.empty() && home_.queue.next_time() <= t) {
    step();
    check_time_limit();  // the safety valve guards bounded runs too
  }
  if (home_.now < t) home_.now = t;
  return !home_.queue.empty();
}

usize Simulation::live_processes() const {
  usize n = 0;
  each_shard([&](const Shard& s) {
    for (const auto& up : s.procs)
      if (up->state_ != Process::State::kFinished) ++n;
  });
  return n;
}

u64 Simulation::events_executed() const {
  u64 n = 0;
  each_shard([&](const Shard& s) { n += s.queue.executed(); });
  return n;
}

usize Simulation::events_pending() const {
  usize n = 0;
  each_shard([&](const Shard& s) { n += s.queue.size(); });
  return n;
}

EventQueue::Stats Simulation::queue_stats() const {
  EventQueue::Stats agg;
  each_shard([&](const Shard& s) {
    const EventQueue::Stats q = s.queue.stats();
    agg.posted += q.posted;
    agg.inline_stored += q.inline_stored;
    agg.heap_fallback += q.heap_fallback;
    agg.pool_chunks += q.pool_chunks;
    agg.overflow_posted += q.overflow_posted;
    agg.overflow_scanned += q.overflow_scanned;
    agg.max_calendar = std::max(agg.max_calendar, q.max_calendar);
  });
  return agg;
}

detail::StackPool::Stats Simulation::stack_stats() const {
  detail::StackPool::Stats agg;
  each_shard([&](const Shard& s) {
    const detail::StackPool::Stats st = s.stacks.stats();
    agg.mapped += st.mapped;
    agg.reused += st.reused;
    agg.live += st.live;
    agg.pooled += st.pooled;
  });
  return agg;
}

// ---------------------------------------------------------------------------
// Parallel window coordinator
//
// Conservative lockstep: each iteration computes the global minimum next
// event time T across shards, sets the window end W = T + lookahead, and
// lets every shard with work before W drain concurrently (events executed
// at t < W can only affect other shards at >= t + lookahead >= W). The
// common case where a window touches a single shard -- e.g. a 2-rank
// ping-pong sharded 8 ways -- skips the worker rendezvous entirely and is
// drained inline by the coordinator.
// ---------------------------------------------------------------------------

bool Simulation::parallel_needed() const {
  for (const auto& sp : extra_) {
    const Shard& s = *sp;
    if (!s.queue.empty()) return true;
    for (const auto& p : s.procs)
      if (p->state_ != Process::State::kFinished) return true;
  }
  return false;
}

void Simulation::drain_window(Shard& s, SimTime wend) {
  obs::Sink::Scope obs_scope(*sink_);
  ShardScope ctx(*this, s);
  const SimTime look = lookahead_ > 0 ? lookahead_ : 1;
  // The window may shrink while it runs: the moment this shard emits
  // cross-shard work at time t -- an outbox send, or a spine op reported
  // through note_horizon() -- a foreign reaction can reach this shard at
  // t + lookahead, so no event at or past that time may execute before
  // the next barrier. Lockstep windows (wend = tmin + lookahead) are
  // never shortened by this, since every emission satisfies t >= tmin;
  // only the extended solo windows of run_parallel() feel the cap.
  SimTime cap = wend;
  usize ob_seen = s.outbox.size();
  s.horizon = kNever;
  // Publish the live cap so inline_apply_bound() keeps coalesced inline
  // applications inside this window (reset on every exit path).
  struct CapReset {
    SimTime* cap;
    ~CapReset() { *cap = kNever; }
  } cap_reset{&s.inline_cap};
  s.inline_cap = cap;
  EventQueue::Popped ev;
  try {
    while (!s.queue.empty() && s.queue.next_time() < cap) {
      s.queue.pop(&ev);
      assert(ev.t >= s.now);
      s.now = ev.t;
      s.queue.run_and_release(ev);
      if (time_limit_ > 0 && s.now > time_limit_) {
        s.timed_out = true;
        return;
      }
      for (; ob_seen < s.outbox.size(); ++ob_seen)
        cap = std::min(cap, s.outbox[ob_seen].t + look);
      if (s.horizon != kNever) cap = std::min(cap, s.horizon + look);
      s.inline_cap = cap;
    }
  } catch (const ProcessError& e) {
    s.proc_error = true;
    s.error = e.what();
  } catch (const std::exception& e) {
    s.error = e.what();
  }
}

void Simulation::merge_outboxes(SimTime wend) {
  (void)wend;
  merge_buf_.clear();
  each_shard([&](Shard& s) {
    for (auto& m : s.outbox) merge_buf_.push_back(std::move(m));
    s.outbox.clear();
  });
  if (merge_buf_.empty()) return;
  // Stable sort on timestamp only: ties keep (source shard, send order),
  // the deterministic merge order the determinism contract promises.
  std::stable_sort(merge_buf_.begin(), merge_buf_.end(),
                   [](const Shard::CrossEvent& a, const Shard::CrossEvent& b) {
                     return a.t < b.t;
                   });
  for (auto& m : merge_buf_) {
    // The conservative invariant: a cross-shard event can never land in
    // its receiver's past. (Extended solo windows run the sender far past
    // the lockstep wend, so t >= wend would be too strong a check.)
    assert(m.t >= m.dst->now && "cross-shard event violates the lookahead horizon");
    m.dst->queue.push(m.t, std::move(m.fn));
  }
  merge_buf_.clear();
}

void Simulation::throw_shard_failure() {
  bool timed_out = false;
  const Shard* failed = nullptr;
  each_shard([&](const Shard& s) {
    timed_out = timed_out || s.timed_out;
    if (failed == nullptr && !s.error.empty()) failed = &s;
  });
  if (timed_out) throw std::runtime_error("simulation exceeded time limit");
  if (failed != nullptr) {
    if (failed->proc_error) throw ProcessError(failed->error);
    throw std::runtime_error(failed->error);
  }
}

void Simulation::run_parallel(SimTime until) {
  obs::Sink::Scope obs_scope(*sink_);
  start_workers();
  parallel_run_ = true;
  struct Reset {
    bool* flag;
    ~Reset() { *flag = false; }
  } reset{&parallel_run_};
  const SimTime look = lookahead_ > 0 ? lookahead_ : 1;

  for (;;) {
    SimTime tmin = kNever;
    each_shard([&](Shard& s) {
      if (!s.queue.empty()) tmin = std::min(tmin, s.queue.next_time());
    });
    if (tmin == kNever) break;
    if (until >= 0 && tmin > until) break;
    SimTime wend = tmin + look;
    if (until >= 0 && wend > until) wend = until + 1;  // run events at == until

    u64 mask = 0;
    u32 active = 0, last = 0;
    for (u32 i = 0; i < jobs_; ++i) {
      Shard& s = shard_at(i);
      if (!s.queue.empty() && s.queue.next_time() < wend) {
        mask |= u64{1} << i;
        ++active;
        last = i;
      }
    }
    if (workers_.empty() && active > 1) {
      // Single-hardware-thread host: the rendezvous cannot buy concurrency,
      // so drain the window's shards inline, in shard order. Windows are
      // independent per-shard drains, so this is observably identical to
      // the threaded path (the merge order never depends on drain order).
      for (u32 i = 0; i < jobs_; ++i) {
        if ((mask >> i) & 1) drain_window(shard_at(i), wend);
      }
    } else if (active == 1) {
      // Solo window: every other shard is idle until its own next event at
      // other_min >= wend, so the active shard may keep draining well past
      // the lockstep wend. Extending collapses millions of tiny lockstep
      // windows (one per ring hop) into one long drain whenever activity
      // is momentarily confined to a single shard -- the dominant shape of
      // a ping-pong run sharded over idle partners. Two bounds keep it
      // conservative:
      //  * other_min, *strictly*: barrier-deferred spine ops replay in
      //    batch order across barriers, so no op recorded this window may
      //    time-sort after an op a foreign shard records later (foreign
      //    ops are all >= other_min). Costs at most one lookahead of
      //    extension; an empty rest-of-world (kNever) has no foreign ops
      //    to invert with and extends unboundedly.
      //  * drain_window() shrinks the cap the moment the shard emits
      //    cross-shard work of its own (outbox sends, spine ops via
      //    note_horizon), so a reaction to that work is never outrun.
      SimTime other_min = kNever;
      for (u32 i = 0; i < jobs_; ++i) {
        if (i == last) continue;
        Shard& o = shard_at(i);
        if (!o.queue.empty()) other_min = std::min(other_min, o.queue.next_time());
      }
      wend = other_min;  // >= tmin + look, so never shorter than lockstep
      if (until >= 0 && wend > until) wend = until + 1;
      drain_window(shard_at(last), wend);
    } else {
      // Work-stealing window: publish the shard set as a claimable mask
      // (release store -- a claimer's acq_rel fetch_and synchronizes with
      // it directly, so window_end_/pending_ stored beforehand are visible
      // even to a laggard worker arriving from the previous epoch), wake
      // the workers, then compete for claims like everyone else. A worker
      // that drains its claim early steals the next unclaimed shard, so a
      // skewed partition no longer serializes on its hottest shard.
      window_end_.store(wend, std::memory_order_relaxed);
      pending_.store(static_cast<u32>(std::popcount(mask)),
                     std::memory_order_relaxed);
      unclaimed_mask_.store(mask, std::memory_order_release);
      {
        // Lock/unlock pairs with the cv predicate check so a worker that
        // just decided to sleep cannot miss this epoch.
        std::lock_guard<std::mutex> lk(gate_mu_);
        epoch_.fetch_add(1, std::memory_order_release);
      }
      gate_cv_.notify_all();
      drain_claimed(0);
      for (u32 spins = 0; pending_.load(std::memory_order_acquire) != 0;) {
        if (++spins >= 256) {
          std::this_thread::yield();
          spins = 0;
        } else {
          cpu_pause();
        }
      }
    }

    for (auto& h : barrier_hooks_) h(wend);
    merge_outboxes(wend);

    bool failed = false;
    each_shard([&](const Shard& s) {
      failed = failed || s.timed_out || !s.error.empty();
    });
    if (failed) break;
  }

  // Converge the shard clocks so now() reports the global end time and
  // later posts on any shard are in its future. inline_mark folds in
  // coalesced deliveries that ran ahead of the shard's event clock.
  SimTime tmax = 0;
  each_shard([&](const Shard& s) {
    tmax = std::max({tmax, s.now, s.inline_mark});
  });
  each_shard([&](Shard& s) { s.now = tmax; });
  throw_shard_failure();
}

void Simulation::start_workers() {
  if (!workers_.empty() || jobs_ <= 1) return;
  // One hardware thread: worker threads would only timeshare with the
  // coordinator; run_parallel drains multi-shard windows inline instead.
  // SCRNET_SIM_FORCE_WORKERS=1 overrides, so sanitizer runs can exercise
  // the rendezvous even on single-core machines.
  const char* force = std::getenv("SCRNET_SIM_FORCE_WORKERS");
  const bool forced = force != nullptr && force[0] != '\0' && force[0] != '0';
  u32 nworkers = jobs_ - 1;
  if (!forced) {
    const u32 hw = std::thread::hardware_concurrency();
    if (hw <= 1) return;
    // Stealing decouples workers from shards: with more shards than cores
    // (jobs > hw), hw-1 workers plus the coordinator claim the shard set
    // dynamically instead of oversubscribing one thread per shard.
    nworkers = std::min(nworkers, hw - 1);
  }
  workers_.reserve(nworkers);
  for (u32 i = 1; i <= nworkers; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

void Simulation::stop_workers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(gate_mu_);
    stop_workers_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  gate_cv_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
  stop_workers_.store(false, std::memory_order_relaxed);
}

/// Claim-drain loop shared by the coordinator and every worker: pick an
/// unclaimed shard (preferring bits at or above `start` so participants
/// fan out before colliding), win it with an atomic fetch_and, drain its
/// window, repeat until no claims remain. window_end_ is read only *after*
/// a successful claim: the claim synchronizes with the mask's release
/// store, and the coordinator cannot publish a new window while this one
/// still has undrained claims (it spins on pending_), so the value always
/// belongs to the window the claimed bit came from -- even when the
/// claimer is a laggard that loaded its first `avail` in a previous epoch.
void Simulation::drain_claimed(u32 start) {
  for (;;) {
    const u64 avail = unclaimed_mask_.load(std::memory_order_acquire);
    if (avail == 0) return;
    const u64 hi = avail & (~u64{0} << start);
    const u32 i = static_cast<u32>(std::countr_zero(hi != 0 ? hi : avail));
    const u64 bit = u64{1} << i;
    if (unclaimed_mask_.fetch_and(~bit, std::memory_order_acq_rel) & bit) {
      drain_window(shard_at(i), window_end_.load(std::memory_order_relaxed));
      pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
}

void Simulation::worker_main(u32 worker_idx) {
  u64 seen = 0;
  for (;;) {
    u64 e = epoch_.load(std::memory_order_acquire);
    if (e == seen) {
      u32 spins = 0;
      while ((e = epoch_.load(std::memory_order_acquire)) == seen &&
             !stop_workers_.load(std::memory_order_relaxed)) {
        if (++spins < 4096) {
          cpu_pause();
          continue;
        }
        std::unique_lock<std::mutex> lk(gate_mu_);
        gate_cv_.wait(lk, [&] {
          return epoch_.load(std::memory_order_acquire) != seen ||
                 stop_workers_.load(std::memory_order_relaxed);
        });
        spins = 0;
      }
    }
    if (stop_workers_.load(std::memory_order_relaxed)) return;
    seen = e;
    drain_claimed(worker_idx % jobs_);
  }
}

// ---------------------------------------------------------------------------
// Signal
// ---------------------------------------------------------------------------

void Signal::wait(Process& p) {
  waiting_.push_back(&p);
  p.park();
}

bool Signal::wait_for(Process& p, SimTime timeout) {
  waiting_.push_back(&p);
  const u64 token = p.park_token_ + 1;  // token park() is about to use
  p.wake_was_notify_ = true;
  sim_.post(timeout, [this, &p, token] {
    if (p.state_ == Process::State::kParked && p.park_token_ == token) {
      // Still parked on this very wait: cancel it.
      for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
        if (*it == &p) {
          waiting_.erase(it);
          break;
        }
      }
      p.wake_was_notify_ = false;
      p.state_ = Process::State::kReady;
      sim_.dispatch(p);
    }
  });
  p.park();
  return p.wake_was_notify_;
}

void Signal::notify_all() {
  while (!waiting_.empty()) notify_one();
}

void Signal::notify_one() {
  if (waiting_.empty()) return;
  Process* p = waiting_.front();
  waiting_.pop_front();
  p->wake_was_notify_ = true;
  p->state_ = Process::State::kReady;
  sim_.schedule_resume(*p, sim_.now());
}

}  // namespace scrnet::sim
