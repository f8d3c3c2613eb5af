#include "obs/sink.h"

#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string_view>

namespace scrnet::obs {

namespace {

thread_local Sink* t_current = nullptr;

/// Serializes the "-" (stderr table) counters mode across concurrently
/// finishing sweep jobs so two runs' tables never interleave.
std::mutex& stderr_table_mutex() {
  static std::mutex mu;
  return mu;
}

struct EnvPaths {
  const char* trace = nullptr;
  const char* counters = nullptr;
  EnvPaths() {
    trace = std::getenv("SCRNET_TRACE");
    counters = std::getenv("SCRNET_COUNTERS");
    if (trace && !*trace) trace = nullptr;
    if (counters && !*counters) counters = nullptr;
  }
};

const EnvPaths& env_paths() {
  static EnvPaths p;
  return p;
}

/// SCRNET_TRACE / SCRNET_COUNTERS values captured at process start
/// (nullptr when unset or empty).
const char* trace_env_path() { return env_paths().trace; }
const char* counters_env_path() { return env_paths().counters; }

}  // namespace

Sink& Sink::global() {
  static Sink s;
  return s;
}

Sink& Sink::current() { return t_current ? *t_current : global(); }

Sink::Scope::Scope(Sink& s) : prev_(t_current) { t_current = &s; }
Sink::Scope::~Scope() { t_current = prev_; }

std::string Sink::suffixed(const std::string& base) const {
  return label_.empty() ? base : base + "." + label_;
}

bool Sink::flush_trace_to(const std::string& base) const {
  if (tracer_.events() == 0) return false;
  return tracer_.write_json_file(suffixed(base));
}

bool Sink::flush_counters_to(const std::string& base) const {
  if (counters_.empty()) return false;
  return counters_.write_json_file(suffixed(base));
}

void Sink::flush_env() {
  if (const char* path = trace_env_path()) (void)flush_trace_to(path);
  const char* path = counters_env_path();
  if (path == nullptr || counters_.empty()) return;
  // "-" asks for the table on stderr; a path that cannot be written gets
  // it there too, so no run's counters are lost without a word.
  if (std::string_view(path) == "-" || !flush_counters_to(path)) {
    std::lock_guard<std::mutex> lk(stderr_table_mutex());
    if (!label_.empty()) std::cerr << "== counters: " << label_ << " ==\n";
    counters_.write_table(std::cerr);
  }
}

// The global() singletons of Tracer/Counters are views into the global
// sink, so "Sink" is purely additive: every pre-sweep call site keeps its
// exact behavior.
Tracer& Tracer::global() { return Sink::global().tracer(); }
Tracer& Tracer::current() { return Sink::current().tracer(); }
Counters& Counters::global() { return Sink::global().counters(); }

namespace {

/// Process-lifetime hook: SCRNET_TRACE=<path> arms the tracer at startup
/// and dumps the *global* sink's JSON at exit; SCRNET_COUNTERS=<path|->
/// does the same for the counter registry ("-" = table on stderr).
/// Labeled per-run sinks flush themselves at job end instead (flush_env),
/// so the exit dump writes nothing when the global sink recorded nothing.
/// Constructing the global sink and the stderr lock here first guarantees
/// they outlive this hook.
struct EnvHook {
  EnvHook() {
    (void)Sink::global();
    (void)stderr_table_mutex();
    (void)env_paths();
    if (trace_env_path()) Tracer::global().enable(true);
    if (counters_env_path()) Counters::global().enable(true);
  }

  ~EnvHook() { Sink::global().flush_env(); }
};

EnvHook env_hook;

}  // namespace

}  // namespace scrnet::obs
