// Parallel sweep engine: run independent deterministic simulations across
// all cores, bit-identically.
//
// A DES parameter sweep (message sizes x fabrics x node counts -- the
// paper's own methodology, and the shape of every bench/fig* main) is
// embarrassingly parallel: each point is one self-contained
// sim::Simulation that shares no mutable state with its siblings.
// Runner::map exploits that, and is the only parallel primitive:
//
//  * min(jobs, n) threads, the caller among them, claim element indices
//    from one shared counter and store each result at its index, so a
//    sweep's output is byte-identical to running the elements one by one
//    -- at any --jobs value, in any completion order;
//  * each element runs under its own obs::Sink (see obs/sink.h), so
//    tracing or counters armed during a sweep write one well-formed
//    "<path>.<label>" file per run instead of interleaving runs into one
//    document.
//
// Determinism contract (docs/sweep.md):
//  1. an element must not touch mutable state outside its own closure --
//     a sim::Simulation plus everything built on it qualifies by
//     construction;
//  2. each thread runs one simulation at a time to completion; fiber
//     switch state (sim/fiber.cc) is thread_local, so sims on sibling
//     threads cannot observe each other's switches;
//  3. the value an element returns must depend only on its inputs --
//     virtual time, never wall clock.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <initializer_list>
#include <map>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace scrnet::sweep {

/// A main's command line. Every program takes `--jobs N` (or `--jobs=N`):
/// `jobs` is 0 when it is absent, which Runner resolves to
/// hardware_concurrency(), and the job count never changes a sweep's
/// output, only its wall clock. `given` maps each flag given, --jobs
/// included, to its value (null for a switch).
struct Args {
  u32 jobs = 0;
  std::map<std::string_view, const char*> given;

  bool has(std::string_view flag) const { return given.contains(flag); }
  const char* value(std::string_view flag) const {
    const auto it = given.find(flag);
    return it == given.end() ? nullptr : it->second;
  }
};

/// Parse argv against the program's own `flags`, each spelt as its usage
/// line shows it: "--large" is a switch, "--cc FILE" takes a value (also
/// as `--cc=FILE`). Any other argument, a flag without its value or a
/// `--jobs` that is not a count prints "usage: <program> [--jobs N]
/// [<flag>]..." to stderr and exits 2, before the program runs anything.
Args parse_args(int argc, char** argv,
                std::initializer_list<std::string_view> flags = {});

class Runner {
 public:
  /// jobs == 0 resolves to std::thread::hardware_concurrency().
  explicit Runner(u32 jobs = 0);

  u32 jobs() const { return jobs_; }

  /// Run fn over every element of xs and return the results in element
  /// order. fn is called exactly once per element, possibly on several
  /// threads at once. Element i runs under an obs::Sink labeled
  /// "<label>-<seq>", where seq is a process-wide sequence number given
  /// out in element order, so per-run trace/counter file names are the
  /// same at any jobs(). If elements throw, every element still runs, and
  /// after the join the exception of the lowest-index one is rethrown.
  ///
  /// Indices are claimed last element first. The figure sweeps and the
  /// tuner grid ascend their size or node axis, and repro_all lists
  /// abl_bcast (10.1 of the suite's 18.1 s at --jobs 1) second to last,
  /// so the longest elements sit at the end: starting there keeps one
  /// long element from running alone after the rest are done. The
  /// work-stealing pool this replaced got the same effect by stealing
  /// from the back. On a 4-core Xeon @ 2.1 GHz, claiming first element
  /// first instead made `tuner --quick --jobs 4` 18% slower (0.70 vs
  /// 0.60 s median, slower in 16 of 16 alternating pairs).
  template <typename In, typename F,
            typename T = std::invoke_result_t<const F&, const In&>>
  std::vector<T> map(std::string_view label, const std::vector<In>& xs,
                     const F& fn) {
    static_assert(!std::is_void_v<T>, "sweep elements must return a value");
    const usize n = xs.size();
    const u64 seq0 = reserve_seq(n);
    std::vector<std::optional<T>> out(n);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<usize> claimed{0};
    const auto work = [&] {
      for (usize k; (k = claimed.fetch_add(1, std::memory_order_relaxed)) < n;) {
        const usize i = n - 1 - k;
        auto body = [&] { out[i].emplace(fn(xs[i])); };
        try {
          run_element(label, seq0 + i, &body, [](void* b) {
            (*static_cast<decltype(body)*>(b))();
          });
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    {
      std::vector<std::jthread> helpers;  // joined when this scope ends
      for (usize t = 1; t < std::min<usize>(jobs_, n); ++t)
        helpers.emplace_back(work);
      work();
    }
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    std::vector<T> results;
    results.reserve(n);
    for (std::optional<T>& r : out) results.push_back(std::move(*r));
    return results;
  }

 private:
  /// Take n consecutive numbers from the process-wide label sequence.
  static u64 reserve_seq(usize n);
  /// Run body(ctx) under its own obs::Sink labeled "<base>-<seq>" (seq
  /// zero-padded to four digits), flush the sink, then rethrow whatever
  /// the body threw. A plain function pointer, not std::function, which
  /// allocates per element: that made BM_SweepThroughput/1 9% slower
  /// (2.03 vs 1.86 ms median over 12 pairs, 4-core Xeon @ 2.1 GHz).
  static void run_element(std::string_view base, u64 seq, void* ctx,
                          void (*body)(void*));

  u32 jobs_;
};

}  // namespace scrnet::sweep
