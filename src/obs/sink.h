// Per-run observability context: one Tracer plus one Counters registry,
// bundled so every simulation records into its *own* sink instead of the
// process-wide singletons.
//
// Before the parallel sweep engine (src/sweep/) existed, Tracer::global()
// and Counters::global() were the only instances, which was fine when a
// process ran one simulation at a time. A sweep runs many independent
// simulations concurrently; funneling them into one registry would
// interleave their events (and their SCRNET_TRACE / SCRNET_COUNTERS output
// files). The Sink restores isolation:
//
//  * Sink::global() is the process-wide default -- single-run programs
//    (tests, examples, a bench run outside a sweep) behave exactly as
//    before, and the EnvHook still dumps it at process exit.
//  * Sink::current() is a thread-local pointer, defaulting to global().
//    sweep::Runner installs a fresh labeled Sink around each job
//    (Sink::Scope), and sim::Simulation captures current() at construction
//    so harness code can publish into sim.sink() explicitly.
//  * When SCRNET_TRACE / SCRNET_COUNTERS are armed, a labeled sink flushes
//    to "<path>.<label>" at job end -- one well-formed file per run, never
//    two runs interleaved in one JSON document.
//
// The enable flags (Tracer::enabled_ / Counters::enabled_) deliberately
// stay process-wide static bools: the disabled fast path must remain a
// single static load + branch, and "armed" is a per-process decision even
// when recording is per-run.
#pragma once

#include <string>

#include "obs/counters.h"
#include "obs/trace.h"

namespace scrnet::obs {

class Sink {
 public:
  Sink() = default;
  explicit Sink(std::string label) : label_(std::move(label)) {}

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  /// Process-wide default sink; Tracer::global()/Counters::global() are
  /// views into it.
  static Sink& global();

  /// The sink new Simulations and TRACE_* hooks record into on this
  /// thread. Defaults to global(); sweep jobs install their own via Scope.
  static Sink& current();

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

  const std::string& label() const { return label_; }
  bool is_global() const { return this == &global(); }

  /// Flush recorded data to the SCRNET_TRACE / SCRNET_COUNTERS targets,
  /// suffixed with this sink's label ("<path>.<label>"). No-op for
  /// whatever is not armed or recorded nothing. Called by sweep::Runner
  /// at the end of each job; the unlabeled global sink is instead dumped
  /// once at process exit (EnvHook), exactly as before.
  void flush_env();

  /// Explicit-path variants (tests use these; flush_env composes them).
  /// Write this sink's trace JSON / counters JSON to "<base>.<label>"
  /// (or "<base>" when the label is empty). False if the file cannot be
  /// opened or nothing was recorded.
  bool flush_trace_to(const std::string& base) const;
  bool flush_counters_to(const std::string& base) const;

  /// RAII: install a sink as this thread's current() for a scope.
  class Scope {
   public:
    explicit Scope(Sink& s);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Sink* prev_;
  };

 private:
  std::string suffixed(const std::string& base) const;

  Tracer tracer_;
  Counters counters_;
  std::string label_;
};

}  // namespace scrnet::obs
