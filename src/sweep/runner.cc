#include "sweep/runner.h"

#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/sink.h"

namespace scrnet::sweep {

namespace {
/// Process-wide element sequence for sink labels. map() reserves one block
/// per call on the calling thread and numbers its elements in element
/// order, so the label of every run -- and with it the name of any per-run
/// trace/counters file -- is identical at any --jobs value.
std::atomic<u64> g_seq{0};
}  // namespace

u32 parse_jobs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
      return static_cast<u32>(std::atol(argv[i + 1]));
    if (std::strncmp(argv[i], "--jobs=", 7) == 0)
      return static_cast<u32>(std::atol(argv[i] + 7));
  }
  return 0;
}

Runner::Runner(u32 jobs) : jobs_(jobs) {
  if (jobs_ == 0) jobs_ = std::max(1u, std::thread::hardware_concurrency());
}

u64 Runner::reserve_seq(usize n) {
  return g_seq.fetch_add(n, std::memory_order_relaxed);
}

void Runner::run_element(std::string_view base, u64 seq, void* ctx,
                         void (*body)(void*)) {
  std::string n = std::to_string(seq);
  if (n.size() < 4) n.insert(0, 4 - n.size(), '0');
  // One private sink per run: simulations constructed inside the body
  // capture it, TRACE_* hooks on this thread record into it, and armed
  // SCRNET_TRACE / SCRNET_COUNTERS output lands in "<path>.<label>".
  obs::Sink sink(std::string(base) + "-" + n);
  std::exception_ptr error;
  {
    obs::Sink::Scope scope(sink);
    try {
      body(ctx);
    } catch (...) {
      error = std::current_exception();
    }
  }
  sink.flush_env();
  if (error) std::rethrow_exception(error);
}

}  // namespace scrnet::sweep
