#include "sim/simulation.h"

#include <cassert>
#include <cstdio>
#include <limits>
#include <utility>

#include "obs/sink.h"
#include "obs/trace.h"

namespace scrnet::sim {

namespace {
/// Internal exception used to unwind a process's fiber stack when the
/// Simulation is destroyed while the process is still blocked. User
/// destructors on the process stack run normally.
struct ProcessCancelled {};

/// Lets in-place resumes reach `bound` while one run()/run_until() lasts;
/// however the run ends, it leaves -1 behind, so none happen outside one.
struct HorizonScope {
  SimTime& horizon;
  HorizonScope(SimTime& h, SimTime bound) : horizon(h) { horizon = bound; }
  ~HorizonScope() { horizon = -1; }
  HorizonScope(const HorizonScope&) = delete;
  HorizonScope& operator=(const HorizonScope&) = delete;
};
}  // namespace

// ---------------------------------------------------------------------------
// Process
//
// Every process runs on a stackful fiber (sim/fiber.h). The kernel and the
// processes share the thread that called run(); dispatch/to_kernel are
// plain context swaps, and an exited process gives its stack back to the
// thread's region cache (sim/mapping.h).
// ---------------------------------------------------------------------------

Process::Process(Simulation& sim, u32 id, std::string name,
                 std::function<void(Process&)> body)
    : sim_(sim), id_(id), name_(std::move(name)), body_(std::move(body)) {
  // The execution context is created lazily on first dispatch, so a spawn
  // costs no stack until the process actually runs.
}

void Process::delay(SimTime dt) {
  assert(dt >= 0 && "negative delay");
  const SimTime t = sim_.now_ + dt;
  if (sim_.resume_in_place(t)) {
    if (spin_) ++sim_.spin_resumes_;
    return;
  }
  state_ = State::kReady;
  if (spin_)
    sim_.schedule_spin_resume(*this, t);
  else
    sim_.schedule_resume(*this, t);
  to_kernel();
  from_kernel_wait();
}

void Process::yield() { delay(0); }

Process::Spin::Spin(Process& p, const char* site, bool timed)
    : p_(p), site_(site), outer_(p.spin_) {
  if (timed) {
    // A pass that runs a timed spin can act on its timeout, so it is not
    // quiet, and neither is this process while the timed spin lasts.
    ++p_.timed_spins_;
    p_.sim_.unmark_quiet(p_);
  }
  p_.spin_ = this;
}

Process::Spin::~Spin() {
  p_.sim_.unmark_quiet(p_);
  p_.spin_ = outer_;
}

void Process::park() {
  TRACE_SPAN(obs::Layer::kSim, id_, "sim.parked", *this);
  sim_.unmark_quiet(*this);
  state_ = State::kParked;
  ++park_token_;
  to_kernel();
  from_kernel_wait();
}

SimTime Process::now() const { return sim_.now_; }

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
  sim_.kctx_.switch_from(fiber_, /*from_dying=*/true);
  // Unreachable: nothing dispatches a finished process.
}

void Process::to_kernel() { sim_.kctx_.switch_from(fiber_); }

void Process::from_kernel_wait() {
  if (cancelled_) throw ProcessCancelled{};
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

Simulation::Simulation() : sink_(&obs::Sink::current()) {}

Simulation::~Simulation() {
  // Unwind any process still blocked mid-body so its destructors run.
  for (auto& up : procs_) {
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

Process& Simulation::spawn(std::string name, std::function<void(Process&)> body) {
  const u32 id = static_cast<u32>(procs_.size());
  procs_.push_back(std::unique_ptr<Process>(
      new Process(*this, id, std::move(name), std::move(body))));
  Process& p = *procs_.back();
  TRACE_INSTANT(obs::Layer::kSim, p.id(), "sim.spawn", *this);
  p.state_ = Process::State::kReady;
  schedule_resume(p, now_);
  return p;
}

void Simulation::schedule_resume(Process& p, SimTime t) {
  queue_.push(t, [this, &p] { dispatch(p); });
}

void Simulation::schedule_spin_resume(Process& p, SimTime t) {
  ++queued_spin_resumes_;
  queue_.push(t, [this, &p] {
    --queued_spin_resumes_;
    ++spin_resumes_;
    dispatch(p);
  });
}

void Simulation::dispatch(Process& p) {
  if (p.state_ == Process::State::kFinished) return;  // stale resume after error
  assert(p.state_ == Process::State::kReady && "dispatching a non-ready process");
  p.state_ = Process::State::kRunning;
  if (!p.fiber_live_) {
    p.stack_ = stacks_.acquire();
    p.fiber_.prepare(&Process::fiber_entry, &p, p.stack_);
    p.fiber_live_ = true;
  }
  p.fiber_.switch_from(kctx_);  // runs p until it blocks or finishes
  if (p.state_ == Process::State::kFinished) {
    stacks_.release(p.stack_);
    p.stack_ = {};
    p.fiber_live_ = false;
    if (!p.error_.empty()) {
      throw ProcessError("process '" + p.name_ + "' failed: " + p.error_);
    }
  } else if (!livelock_.empty()) {
    throw DeadlockError(std::exchange(livelock_, {}));
  }
}

void Simulation::note_quiet(Process& p) {
  const u64 epoch = foreign_events();
  if (quiet_epoch_ != epoch) {
    quiet_epoch_ = epoch;
    quiet_ = 0;
  }
  if (p.quiet_at_ != epoch + 1) {
    p.quiet_at_ = epoch + 1;
    ++quiet_;
  }
  // Every quiet process but p has exactly one resume queued, a spin
  // resume, and only spin resumes are queued: so this holds when they are
  // all quiet spinners' resumes. Within run_until the caller may still
  // post events between calls, so only run() ends here.
  if (horizon_ != std::numeric_limits<SimTime>::max() ||
      quiet_ != queued_spin_resumes_ + 1)
    return;
  std::string spinning, parked;
  usize nspinning = 0, nparked = 0;
  for (const auto& up : procs_) {
    if (up->state_ == Process::State::kParked)
      append_name(parked, nparked, *up);
    else if (up->state_ != Process::State::kFinished)
      append_name(spinning, nspinning, *up);
  }
  char at[64];
  std::snprintf(at, sizeof at, "simulation livelock at %.3f us: ", to_us(now_));
  livelock_ = at + std::to_string(nspinning) +
              " process(es) spinning on state that can no longer change: " + spinning;
  if (nparked > 0) livelock_ += "; " + std::to_string(nparked) + " parked: " + parked;
  // Hand control back for good: dispatch() throws the report out of run(),
  // and teardown unwinds this fiber like any other parked one.
  p.state_ = Process::State::kParked;
  p.to_kernel();
  p.from_kernel_wait();
}

void Simulation::append_name(std::string& list, usize& n, const Process& p) {
  if (n++ > 0) list += ", ";
  list += p.name();
  if (p.spin_) list.append(" (").append(p.spin_->site()).append(")");
}

void Simulation::check_time_limit() const {
  if (time_limit_ > 0 && now_ > time_limit_)
    throw std::runtime_error("simulation exceeded time limit");
}

void Simulation::check_deadlock() const {
  std::string parked;
  usize nparked = 0;
  for (const auto& up : procs_)
    if (up->state_ == Process::State::kParked) append_name(parked, nparked, *up);
  if (nparked > 0) {
    throw DeadlockError("simulation deadlock: " + std::to_string(nparked) +
                        " process(es) parked with no pending events: " + parked);
  }
}

void Simulation::run() {
  // All events (and the process fibers they dispatch) execute on this
  // thread until run() returns, so installing the simulation's sink as the
  // thread-current one routes every TRACE_* hook fired inside to it --
  // even when several simulations run concurrently on sibling threads.
  obs::Sink::Scope obs_scope(*sink_);
  HorizonScope horizon(horizon_, std::numeric_limits<SimTime>::max());
  if (time_limit_ > 0) {
    while (step()) check_time_limit();
  } else {
    while (step()) {
    }
  }
  // Queue drained: every process must have finished, otherwise we deadlocked.
  check_deadlock();
}

bool Simulation::run_until(SimTime t) {
  obs::Sink::Scope obs_scope(*sink_);
  HorizonScope horizon(horizon_, t);
  while (!queue_.empty() && queue_.next_time() <= t) {
    step();
    check_time_limit();  // the safety valve guards bounded runs too
  }
  if (now_ < t) now_ = t;
  return !queue_.empty();
}

usize Simulation::live_processes() const {
  usize n = 0;
  for (const auto& up : procs_)
    if (up->state_ != Process::State::kFinished) ++n;
  return n;
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
