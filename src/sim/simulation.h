// Discrete-event simulation kernel.
//
// The kernel advances a virtual clock over a totally-ordered event queue
// (time, then insertion sequence -- fully deterministic). Two kinds of
// actors exist:
//
//  * event callbacks -- device models (ring, switch, NIC) post plain
//    functions to run at a future virtual time;
//  * processes -- protocol/application code (BBP endpoints, MPI ranks)
//    written as ordinary blocking C++ running on a stackful fiber
//    (sim/fiber.h). Exactly one context (kernel or one process) runs at
//    any instant, on the thread that called run(); control moves by
//    cooperative context swap, so a Process::delay() costs nanoseconds,
//    not a condvar round trip. This lets the *real* protocol code execute
//    unmodified inside the simulation.
//
// A Simulation is single-threaded. Parallelism lives across simulations:
// sweep::Runner runs independent simulations on worker threads.
//
// A process consumes virtual time with Process::delay(), blocks on
// conditions with sim::Signal and polls with Process::spin_until(). A delay
// whose resume would be the very next event the run loop executes --
// nothing queued is due at or before it and it lies within the run's
// bound -- advances the clock in place and returns without a queue round
// trip or a context swap; it keeps its sequence number and its count, so
// event order is unchanged. If the event queue drains while processes are
// still parked, the kernel reports a deadlock with the parked process
// names; if only spinners' resumes are left and no spinner can see
// anything change again, it reports the livelock the same way, naming
// each spin site (docs/simulator.md, "Spinning").
#pragma once

#include <cassert>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "sim/event_queue.h"
#include "sim/fiber.h"

namespace scrnet::obs {
class Sink;
}

namespace scrnet::sim {

class Simulation;
class Process;

/// Thrown by Simulation::run() when all events are exhausted but one or more
/// processes are still parked on a Signal, or when every live process is
/// parked or spinning on state that can no longer change.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown out of run() when a simulated process body threw.
class ProcessError : public std::runtime_error {
 public:
  explicit ProcessError(const std::string& what) : std::runtime_error(what) {}
};

/// A simulated process. Instances are owned by the Simulation; user code
/// receives a reference in its body functor and must not retain it past
/// process exit.
class Process {
 public:
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Consume `dt` of virtual time (models CPU work / bus transactions).
  /// When no queued event is due at or before now() + dt and that time is
  /// within the run's bound, the resume would run next anyway, so the
  /// clock advances in place with no switch.
  void delay(SimTime dt);

  /// Reschedule at the current time, after already-queued events. Useful to
  /// model "check again immediately but let the world make progress".
  void yield();

  /// The one way a process waits by polling. Calls ready(); while it
  /// returns false and `deadline` (absolute; 0 = none) has not passed,
  /// calls pause() and tries again. True once ready() held, false once the
  /// deadline passed first. `site` (a string literal) names the loop;
  /// spins may nest. A pass is one ready() call, and it must change
  /// nothing but this process's clock and counters unless it sees
  /// something new: run() then ends with DeadlockError, naming each site,
  /// once no spinner can ever see anything change (docs/simulator.md,
  /// "Spinning").
  template <typename Ready, typename Pause>
  bool spin_until(const char* site, SimTime deadline, Ready&& ready, Pause&& pause);

  /// Virtual now() shortcut.
  SimTime now() const;

  Simulation& simulation() const { return sim_; }
  const std::string& name() const { return name_; }
  u32 id() const { return id_; }
  bool finished() const { return state_ == State::kFinished; }

 private:
  friend class Simulation;
  friend class Signal;

  enum class State {
    kCreated,   // never dispatched, no execution context yet
    kReady,     // resume event queued
    kRunning,   // process context active
    kParked,    // waiting on a Signal (no resume event queued)
    kFinished,  // body returned or threw
  };

  Process(Simulation& sim, u32 id, std::string name,
          std::function<void(Process&)> body);

  /// Switch control process -> kernel. Called with proc about to block.
  void to_kernel();
  /// Regain control from the kernel (cancellation check on resume).
  void from_kernel_wait();
  /// Park on a signal: no resume event is scheduled; Signal::notify will.
  void park();

  /// One active spin_until call, on this process's stack: entered by the
  /// constructor, left by the destructor, also when ready() throws or
  /// teardown unwinds the fiber.
  class Spin {
   public:
    Spin(Process& p, const char* site, bool timed);
    ~Spin();
    Spin(const Spin&) = delete;
    Spin& operator=(const Spin&) = delete;
    const char* site() const { return site_; }

   private:
    Process& p_;
    const char* site_;
    Spin* outer_;  // the spin whose ready() entered this one, or nullptr
  };

  static void fiber_entry(void* self);
  void fiber_main();

  Simulation& sim_;
  u32 id_;
  std::string name_;
  std::function<void(Process&)> body_;

  detail::FiberContext fiber_;
  detail::FiberStack stack_;
  bool fiber_live_ = false;   // stack acquired + context armed

  bool cancelled_ = false;    // set during Simulation teardown
  bool wake_was_notify_ = false;  // distinguishes notify vs timeout wakeups
  State state_ = State::kCreated;
  u64 park_token_ = 0;        // incremented on every park, guards stale wakeups
  std::string error_;         // exception text if the body threw
  Spin* spin_ = nullptr;      // innermost active spin_until, nullptr if none
  u64 timed_spins_ = 0;       // spin_until calls with a deadline entered
  u64 quiet_at_ = 0;          // 1 + Simulation::foreign_events() at this
                              // process's last quiet pass; 0 = none
};

/// The simulation kernel.
class Simulation {
 public:
  Simulation();
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Post a device callback `delay` after now. The callable's captures
  /// must fit EventQueue::kInlineBytes (a larger one does not compile), so
  /// it is stored allocation-free.
  template <typename F>
    requires EventQueue::kFitsInline<F>
  void post(SimTime delay, F&& fn) {
    queue_.push(now_ + delay, std::forward<F>(fn));
  }
  /// Post a device callback at absolute time t (must be >= now).
  template <typename F>
    requires EventQueue::kFitsInline<F>
  void post_at(SimTime t, F&& fn) {
    assert(t >= now_ && "cannot post into the past");
    queue_.push(t, std::forward<F>(fn));
  }

  /// Create a process; it starts at the current virtual time (or at start
  /// of run() if spawned before run()).
  Process& spawn(std::string name, std::function<void(Process&)> body);

  /// Run until the event queue is empty and every process has finished.
  /// Throws DeadlockError / ProcessError on failure.
  void run();

  /// Run until the given virtual time; returns true if work remains.
  /// Honors the same time-limit safety valve as run().
  bool run_until(SimTime t);

  /// Safety valve: abort run()/run_until() if virtual time passes this
  /// (0 = unlimited).
  void set_time_limit(SimTime t) { time_limit_ = t; }

  u64 events_executed() const { return queue_.executed(); }
  /// The process resumes among events_executed() that ran in place
  /// (Process::delay), with no queue round trip and no fiber switch.
  u64 resumes_in_place() const { return resumes_in_place_; }
  /// The process resumes among events_executed(), in place or queued, of
  /// delays taken inside Process::spin_until: the polling that idle-poll
  /// elision could skip.
  u64 spin_resumes() const { return spin_resumes_; }
  usize live_processes() const;

  /// Event-storage counters (pool growth, inline vs heap callables) -- the
  /// allocation-free guarantee is asserted against these in tests.
  EventQueue::Stats queue_stats() const { return queue_.stats(); }

  /// This simulation's fiber stacks: mapped vs taken from the cache, live.
  detail::StackPool::Stats stack_stats() const { return stacks_.stats(); }

  /// The observability sink this simulation records into (TRACE_* hooks,
  /// published counters). Captured from obs::Sink::current() at
  /// construction: the global sink for ordinary single-run programs, the
  /// job's private sink inside a sweep::Runner job. run()/run_until()
  /// (re)install it as the thread-current sink for their duration.
  obs::Sink& sink() const { return *sink_; }

 private:
  friend class Process;
  friend class Signal;

  /// Schedule process resume at absolute time t.
  void schedule_resume(Process& p, SimTime t);
  /// The same for a delay inside spin_until: counted as a spin resume.
  void schedule_spin_resume(Process& p, SimTime t);
  /// Resume the running process at `t` without leaving it, when that
  /// resume would be the run loop's next event: `t` is within the run's
  /// bound and the time limit, and strictly before every queued event.
  /// Advances the clock and returns true; false changes nothing.
  bool resume_in_place(SimTime t) {
    if (t > horizon_ || (time_limit_ > 0 && t > time_limit_) || !queue_.take_if_next(t))
      return false;
    now_ = t;
    ++resumes_in_place_;
    return true;
  }
  /// Give control to process p and wait until it blocks or finishes.
  void dispatch(Process& p);

  /// Execute one event; returns false if the queue is empty. Inline so the
  /// run() loop compiles down to pop / advance clock / indirect call.
  bool step() {
    EventQueue::Popped ev;
    if (!queue_.pop(&ev)) return false;
    assert(ev.t >= now_);
    now_ = ev.t;
    queue_.run_and_release(ev);
    return true;
  }

  void check_time_limit() const;
  void check_deadlock() const;

  /// Events executed that were not a spinner's resume: device callbacks,
  /// resumes of processes outside spin_until, notifications. Only these
  /// can change what a spinner's ready() sees.
  u64 foreign_events() const { return queue_.executed() - spin_resumes_; }
  /// Nothing but spin resumes is queued. While a foreign event is queued,
  /// a quiet pass proves nothing: that event runs before the rule could
  /// fire, and every quiet pass before it goes stale.
  bool only_spin_resumes_queued() const { return queue_.size() == queued_spin_resumes_; }
  /// `p`, spinning with no deadline, just failed a pass during which no
  /// foreign event ran, and only spin resumes are queued. Ends the run if
  /// every queued resume belongs to a spinner that is just as quiet.
  void note_quiet(Process& p);
  /// Forget `p`'s quiet pass (it leaves a spin, parks or starts a timed one).
  void unmark_quiet(Process& p) {
    if (p.quiet_at_ == quiet_epoch_ + 1) --quiet_;
    p.quiet_at_ = 0;
  }
  /// Append `p`'s name to the comma-separated `list` of `n` names, with
  /// its innermost spin site in parentheses when it is inside spin_until.
  static void append_name(std::string& list, usize& n, const Process& p);

  SimTime time_limit_ = 0;
  obs::Sink* sink_;  // never null; set in the constructor
  SimTime now_ = 0;
  // Last time the current run()/run_until() executes events at; -1 outside
  // them, so a delay during teardown always goes through the queue.
  SimTime horizon_ = -1;
  u64 resumes_in_place_ = 0;
  u64 spin_resumes_ = 0;
  usize queued_spin_resumes_ = 0;  // spin resumes now in the queue
  u64 quiet_epoch_ = 0;  // foreign_events() value quiet_ counts passes at
  usize quiet_ = 0;      // processes whose last pass was quiet at it
  std::string livelock_;  // set when note_quiet ends the run: the report
  EventQueue queue_;
  detail::StackPool stacks_;
  detail::FiberContext kctx_;  // the context that called run()
  std::vector<std::unique_ptr<Process>> procs_;
};

template <typename Ready, typename Pause>
bool Process::spin_until(const char* site, SimTime deadline, Ready&& ready,
                         Pause&& pause) {
  const Spin frame(*this, site, deadline != 0);
  for (;;) {
    const u64 foreign = sim_.foreign_events();
    const u64 timed = timed_spins_;
    if (ready()) return true;
    if (deadline != 0) {
      if (sim_.now() >= deadline) return false;
    } else if (sim_.only_spin_resumes_queued() && timed == timed_spins_ &&
               foreign == sim_.foreign_events()) {
      sim_.note_quiet(*this);
    }
    pause();
  }
}

/// Condition-variable analog for simulated processes.
///
/// wait() parks the calling process until another actor calls notify_all/
/// notify_one. Wakeups are scheduled as regular events at the notifying
/// time, preserving determinism.
class Signal {
 public:
  explicit Signal(Simulation& sim) : sim_(sim) {}

  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  /// Park until notified.
  void wait(Process& p);

  /// Park until notified or until `timeout` elapses; true if notified.
  bool wait_for(Process& p, SimTime timeout);

  void notify_all();
  void notify_one();

 private:
  Simulation& sim_;
  std::deque<Process*> waiting_;
};

}  // namespace scrnet::sim
