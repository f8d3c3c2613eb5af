#include "sweep/runner.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "obs/sink.h"

namespace scrnet::sweep {

namespace {
/// Process-wide element sequence for sink labels. map() reserves one block
/// per call on the calling thread and numbers its elements in element
/// order, so the label of every run -- and with it the name of any per-run
/// trace/counters file -- is identical at any --jobs value.
std::atomic<u64> g_seq{0};

[[noreturn]] void usage_exit(std::string_view prog,
                             const std::vector<std::string_view>& specs,
                             std::string_view why) {
  std::cerr << prog << ": " << why << "\nusage: " << prog;
  for (std::string_view f : specs) std::cerr << " [" << f << "]";
  std::cerr << "\n";
  std::exit(2);
}
}  // namespace

Args parse_args(int argc, char** argv,
                std::initializer_list<std::string_view> flags) {
  std::vector<std::string_view> specs{"--jobs N"};
  specs.insert(specs.end(), flags);
  std::string_view prog = argv[0];
  prog.remove_prefix(prog.rfind('/') + 1);  // npos + 1 == 0: no directory
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i], name = arg.substr(0, arg.find('='));
    const auto spec = std::find_if(specs.begin(), specs.end(), [&](std::string_view f) {
      return f.substr(0, f.find(' ')) == name;
    });
    const bool takes_value = spec != specs.end() && spec->size() > name.size();
    const char* value = nullptr;
    if (name.size() < arg.size())
      value = argv[i] + name.size() + 1;
    else if (takes_value && i + 1 < argc)
      value = argv[++i];
    if (spec == specs.end() || takes_value != (value != nullptr))
      usage_exit(prog, specs, std::string("bad argument '").append(arg).append("'"));
    args.given[name] = value;
  }
  if (const char* j = args.value("--jobs")) {
    const char* end = j + std::strlen(j);
    const auto [stop, err] = std::from_chars(j, end, args.jobs);
    if (err != std::errc() || stop != end)
      usage_exit(prog, specs, std::string("--jobs takes a count, not '").append(j).append("'"));
  }
  return args;
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
