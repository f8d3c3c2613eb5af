// perfbench: the simulator benchmark program.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--golden-dir DIR] [--out-dir DIR] [--t0-ns NS] [--setup-only]
//
// Closed loop, one host thread: the workload's seeded inputs run one
// simulation at a time, the next starting when the previous returns, in
// whole passes over the input list until S seconds have elapsed. Before
// the timed phase, one input of each kind runs as warm-up. Every result is
// checked (anchor cells against the golden files, the rest against model
// invariants), the first pass is digested, and every later pass must repeat
// the first bit for bit.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs half the time
// untraced and half traced (obs::Counters on, a private obs::Sink per
// simulation, spans kept in memory) and prints the per-layer metrics plus
// the tracing overhead. The last stdout line is the JSON result.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/sink.h"
#include "scramnet/ring.h"
#include "workloads.h"

namespace perfbench {
namespace {

using scrnet::usize;

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string golden_dir = "bench/golden";
  std::string out_dir;
  scrnet::i64 t0_ns = -1;
  bool setup_only = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
      have_seconds = true;
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--golden-dir") {
      a.golden_dir = v;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--t0-ns") {
      a.t0_ns = std::stoll(v);
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || a.seconds <= 0)
    throw std::invalid_argument("need --workload, --seed and --seconds > 0");
  return a;
}

/// FNV-1a over 64-bit words.
struct Digest {
  u64 h = 0xcbf29ce484222325ull;
  void add(u64 w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

struct Sample {
  double host_ms;
  SimTime makespan;
};

/// Per-layer accumulators over the traced phase.
struct Layers {
  u64 sims = 0;
  // Host phases of the simulations the benchmark's own bodies drive.
  u64 hooked = 0;
  double build_ms = 0, run_ms = 0, teardown_ms = 0, call_ms = 0;
  u64 hooked_events = 0, posted = 0, overflow = 0, max_calendar = 0,
      heap_fallback = 0, stacks_mapped = 0;
  // Published counters (every simulation).
  u64 events = 0, polls = 0, recvs = 0, send_stalls = 0, gc_runs = 0,
      ring_packets = 0, frames = 0, frames_dropped = 0, packets_handled = 0,
      rndv_rts = 0, zero_copy_bytes = 0;
  // workload::Report accounting (fault_mix).
  u64 reports = 0, faults_fired = 0, ops_ok = 0, ops_timeout = 0, ops_error = 0,
      aborted = 0;
  scrnet::LogHistogram latency_ns;

  void add(const Phases& ph, const Outcome& o, const scrnet::obs::Counters& c) {
    ++sims;
    if (ph.hooked) {
      ++hooked;
      build_ms += ph.build_ms();
      run_ms += ph.run_ms();
      teardown_ms += ph.teardown_ms();
      call_ms += ph.call_ms();
      hooked_events += ph.events;
      posted += ph.queue.posted;
      overflow += ph.queue.overflow_posted;
      max_calendar = std::max(max_calendar, ph.queue.max_calendar);
      heap_fallback += ph.queue.heap_fallback;
      stacks_mapped += ph.stacks.mapped;
    }
    events += std::max(c.get("sim", "events_executed"), ph.events);
    for (u32 r = 0; r < 16; ++r) {
      const std::string b = "bbp.rank" + std::to_string(r);
      const std::string m = "mpi.rank" + std::to_string(r);
      polls += c.get(b, "polls");
      recvs += c.get(b, "recvs");
      send_stalls += c.get(b, "send_stalls");
      gc_runs += c.get(b, "gc_runs");
      packets_handled += c.get(m, "packets_handled");
      rndv_rts += c.get(m, "rndv_rts");
      zero_copy_bytes += c.get(m, "zero_copy_bytes");
    }
    ring_packets += c.get("ring", "packets_sent");
    frames += c.get("net", "frames_delivered");
    frames_dropped += c.get("net", "frames_dropped");
    if (o.has_report) {
      ++reports;
      faults_fired += o.faults_fired;
      ops_ok += o.ops_ok;
      ops_timeout += o.ops_timeout;
      ops_error += o.ops_error;
      aborted += o.aborted;
      latency_ns.merge(o.latency_ns);
    }
  }
};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Ring construction and destruction alone, for the workload's RingConfig.
double ring_ctor_ms(const std::string& workload) {
  scrnet::Samples ms;
  for (int i = 0; i < 5; ++i) {
    scrnet::sim::Simulation sim;
    const auto t0 = Clock::now();
    { scrnet::scramnet::Ring ring(sim, workload_ring(workload)); }
    ms.add(ms_between(t0, Clock::now()));
  }
  return ms.median();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Bench {
 public:
  explicit Bench(std::vector<Input> inputs)
      : inputs_(std::move(inputs)), first_(inputs_.size()) {}

  /// One input of each kind, the same strata for every seed.
  void warm_up() {
    for (usize i = 0; i < inputs_.size(); ++i)
      if (inputs_[i].warm) run_one(i, nullptr, nullptr);
  }

  /// Whole passes until `seconds` of host time have elapsed; returns each
  /// pass's host seconds. Samples and (when given) layer totals accumulate.
  scrnet::Samples timed(double seconds, std::vector<Sample>& samples, Layers* layers) {
    const auto t0 = Clock::now();
    scrnet::Samples pass_s;
    do {
      const auto p0 = Clock::now();
      for (usize i = 0; i < inputs_.size(); ++i) run_one(i, &samples, layers);
      pass_s.add(ms_between(p0, Clock::now()) / 1e3);
    } while (ms_between(t0, Clock::now()) < seconds * 1e3);
    return pass_s;
  }

  usize pass_size() const { return inputs_.size(); }

  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }
  u64 digest() const { return digest_.h; }
  const std::map<std::string, scrnet::Samples>& kind_ms() const { return kind_ms_; }

 private:
  void run_one(usize i, std::vector<Sample>* samples, Layers* layers) {
    const Input& in = inputs_[i];
    Phases ph;
    Outcome o;
    scrnet::obs::Sink sink(in.label);
    const auto t0 = Clock::now();
    bool threw = false;
    try {
      scrnet::obs::Sink::Scope scope(sink);
      o = in.run(ph);
    } catch (const std::exception& e) {
      threw = true;
      o.failure = std::string("threw: ") + e.what();
    }
    const double host_ms = threw ? ms_between(t0, Clock::now()) : ph.call_ms();
    ++attempted_;
    if (o.failure.empty()) check_repeat(i, o);
    if (!o.failure.empty()) {
      ++failed_;
      std::fprintf(stderr, "FAILED %s: %s\n", in.label.c_str(), o.failure.c_str());
    }
    if (samples != nullptr) samples->push_back(Sample{host_ms, o.makespan});
    if (layers != nullptr) layers->add(ph, o, sink.counters());
    kind_ms_[in.kind].add(host_ms);
  }

  /// The first run of an input is digested; every later run must match it.
  void check_repeat(usize i, Outcome& o) {
    std::vector<u64> r = o.results;
    r.push_back(static_cast<u64>(o.makespan));
    if (first_[i].empty()) {
      digest_.add(i);
      for (u64 w : r) digest_.add(w);
      first_[i] = std::move(r);
    } else if (first_[i] != r) {
      o.failure = "virtual-time results differ from this input's first run";
    }
  }

  std::vector<Input> inputs_;
  std::vector<std::vector<u64>> first_;
  Digest digest_;
  u64 attempted_ = 0, failed_ = 0;
  std::map<std::string, scrnet::Samples> kind_ms_;
};

/// Throughput over the median pass: every pass runs the same inputs, so the
/// median pass time discounts host slowdowns that hit a few passes.
double sims_per_s(const scrnet::Samples& pass_s, usize pass_size) {
  return static_cast<double>(pass_size) / pass_s.median();
}

std::vector<Metric> end_to_end(const std::vector<Sample>& s, const scrnet::Samples& pass_s,
                               usize pass_size, double setup_s) {
  scrnet::Samples ms;
  double vus = 0;
  for (const Sample& x : s) {
    ms.add(x.host_ms);
    vus += scrnet::to_us(x.makespan);
  }
  const double pass_vus = vus / static_cast<double>(pass_s.size());
  return {
      {"sims_per_s", sims_per_s(pass_s, pass_size), "1/s"},
      {"sim_ms_p50", ms.median(), "ms"},
      {"sim_ms_p90", ms.percentile(90), "ms"},
      {"vus_per_host_ms", pass_vus / (pass_s.median() * 1e3), "us/ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", setup_s, "s"},
  };
}

/// Mean virtual duration (us) of each protocol-call span name, and the
/// layer self times printed for the traced run.
std::map<std::string, std::pair<double, u64>> span_report(const Recorder& r) {
  std::map<std::string, std::pair<double, u64>> vus;  // name -> (sum, count)
  std::map<u64, double> child_host_ms;                // parent id -> children
  std::map<std::string, double> host_ms;
  for (const Span& s : r.spans) {
    const double h = static_cast<double>(s.host_t1_ns - s.host_t0_ns) / 1e6;
    if (std::strncmp(s.name, "harness.", 8) == 0) {
      host_ms[s.name] += h;
      if (s.parent != 0) child_host_ms[s.parent] += h;
    } else {
      auto& [sum, n] = vus[s.name];
      sum += scrnet::to_us(s.v_t1_ps - s.v_t0_ps);
      ++n;
    }
  }
  double call_self = host_ms["harness.call"];
  for (const auto& [id, ms] : child_host_ms) call_self -= ms;
  std::printf("self-time (host ms): harness.call %.3f", call_self);
  for (const char* p : {"harness.build", "harness.run", "harness.teardown"})
    std::printf("  %s %.3f", p, host_ms[p]);
  std::printf("\nself-time (virtual us, protocol calls from rank bodies):");
  for (const auto& [name, v] : vus) std::printf("  %s %.3f", name.c_str(), v.first);
  std::printf("\n");
  return vus;
}

void write_spans(const Recorder& r, const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  for (const Span& s : r.spans)
    f << "{\"name\":\"" << s.name << "\",\"sim\":" << s.sim << ",\"id\":" << s.id
      << ",\"parent\":" << s.parent << ",\"host_t0_ns\":" << s.host_t0_ns
      << ",\"host_t1_ns\":" << s.host_t1_ns << ",\"v_t0_ps\":" << s.v_t0_ps
      << ",\"v_t1_ps\":" << s.v_t1_ps << "}\n";
}

std::vector<Metric> per_layer(const Layers& L, const Recorder& rec, double ring_ms,
                              double overhead) {
  const double n = static_cast<double>(std::max<u64>(L.sims, 1));
  const double hooked = static_cast<double>(std::max<u64>(L.hooked, 1));
  const double reports = static_cast<double>(std::max<u64>(L.reports, 1));
  const auto vus = span_report(rec);
  const auto mean_vus = [&](const char* name) {
    const auto it = vus.find(name);
    return it == vus.end() ? 0.0 : it->second.first / static_cast<double>(it->second.second);
  };
  const u64 ops = L.ops_ok + L.ops_timeout + L.ops_error + L.aborted;
  return {
      {"harness.build_ms", L.build_ms / hooked, "ms"},
      {"harness.teardown_ms", L.teardown_ms / hooked, "ms"},
      {"harness.setup_share", ratio(L.build_ms + L.teardown_ms, L.call_ms), "ratio"},
      {"scramnet.ring_ctor_ms", ring_ms, "ms"},
      {"sim.run_ms", L.run_ms / hooked, "ms"},
      {"sim.ns_per_event", ratio(L.run_ms * 1e6, static_cast<double>(L.hooked_events)), "ns"},
      {"sim.overflow_frac", ratio(static_cast<double>(L.overflow), static_cast<double>(L.posted)), "ratio"},
      {"sim.max_calendar", static_cast<double>(L.max_calendar), "events"},
      {"sim.heap_fallback", static_cast<double>(L.heap_fallback), "count"},
      {"sim.stacks_mapped", static_cast<double>(L.stacks_mapped) / hooked, "count/sim"},
      {"sim.events_per_sim", static_cast<double>(L.events) / n, "events/sim"},
      {"sim.events_per_wire_unit",
       ratio(static_cast<double>(L.events), static_cast<double>(L.ring_packets + L.frames)),
       "events/unit"},
      {"bbp.polls_per_recv", ratio(static_cast<double>(L.polls), static_cast<double>(L.recvs)), "polls/recv"},
      {"bbp.send_stalls", static_cast<double>(L.send_stalls) / n, "count/sim"},
      {"bbp.gc_runs", static_cast<double>(L.gc_runs) / n, "count/sim"},
      {"scramnet.packets_per_sim", static_cast<double>(L.ring_packets) / n, "packets/sim"},
      {"netmodels.frames", static_cast<double>(L.frames) / n, "frames/sim"},
      {"netmodels.frames_dropped", static_cast<double>(L.frames_dropped) / n, "frames/sim"},
      {"scrmpi.packets_handled", static_cast<double>(L.packets_handled) / n, "packets/sim"},
      {"scrmpi.rndv_rts", static_cast<double>(L.rndv_rts) / n, "count/sim"},
      {"scrmpi.zero_copy_bytes", static_cast<double>(L.zero_copy_bytes) / n, "B/sim"},
      {"bbp.send_vus", mean_vus("bbp.send"), "us"},
      {"bbp.recv_vus", mean_vus("bbp.recv"), "us"},
      {"scrmpi.send_vus", mean_vus("scrmpi.send"), "us"},
      {"scrmpi.recv_vus", mean_vus("scrmpi.recv"), "us"},
      {"scrmpi.bcast_vus", mean_vus("scrmpi.bcast"), "us"},
      {"scrmpi.allreduce_vus", mean_vus("scrmpi.allreduce"), "us"},
      {"scrmpi.barrier_vus", mean_vus("scrmpi.barrier"), "us"},
      {"fault.fired", static_cast<double>(L.faults_fired) / reports, "count/sim"},
      {"workload.ops_timeout_frac", ratio(static_cast<double>(L.ops_timeout), static_cast<double>(ops)), "ratio"},
      {"workload.aborted", static_cast<double>(L.aborted) / reports, "count/sim"},
      {"workload.lat_p99_vus", static_cast<double>(L.latency_ns.percentile_permille(990)) / 1e3, "us"},
      {"trace.overhead_frac", overhead, "ratio"},
  };
}

void print_result(bool correct, u64 attempted, u64 failed, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) std::printf("metric %-28s %.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (usize i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  std::printf("}}\n");
}

int run(const Args& a) {
  const auto start = Clock::now();
  const Clock::time_point t0 =
      a.t0_ns >= 0 ? Clock::time_point(std::chrono::nanoseconds(a.t0_ns)) : start;
  const Goldens g = load_goldens(a.golden_dir);
  Bench bench(make_inputs(a.workload, a.seed, g));
  bench.warm_up();
  const double setup_s = ms_between(t0, Clock::now()) / 1e3;
  if (a.setup_only) {
    std::printf("{\"setup_s\": %.10g, \"failed\": %" PRIu64 "}\n", setup_s, bench.failed());
    return 0;
  }

  std::vector<Metric> metrics;
  std::vector<Sample> samples;
  if (!a.trace) {
    const auto pass_s = bench.timed(a.seconds, samples, nullptr);
    metrics = end_to_end(samples, pass_s, bench.pass_size(), setup_s);
  } else {
    const double plain_sps =
        sims_per_s(bench.timed(a.seconds / 2, samples, nullptr), bench.pass_size());
    scrnet::obs::Counters::global().enable(true);
    recorder().on = true;
    Layers layers;
    std::vector<Sample> traced_samples;
    const double traced_sps =
        sims_per_s(bench.timed(a.seconds / 2, traced_samples, &layers), bench.pass_size());
    recorder().on = false;
    scrnet::obs::Counters::global().enable(false);
    metrics = per_layer(layers, recorder(), ring_ctor_ms(a.workload),
                        1.0 - traced_sps / plain_sps);
    if (!a.out_dir.empty())
      write_spans(recorder(), a.out_dir + "/trace-" + a.workload + ".jsonl");
    samples.insert(samples.end(), traced_samples.begin(), traced_samples.end());
  }

  std::printf("workload %s seed %" PRIu64 " samples %zu (p90 has %zu beyond it)\n",
              a.workload.c_str(), a.seed, samples.size(), samples.size() / 10);
  for (const auto& [kind, ms] : bench.kind_ms())
    std::printf("kind %-22s runs %5zu  host_ms p50 %9.3f  p90 %9.3f\n", kind.c_str(),
                ms.size(), ms.median(), ms.percentile(90));
  std::printf("failed_frac %.6f\n",
              static_cast<double>(bench.failed()) / static_cast<double>(bench.attempted()));
  std::printf("virtual_digest %016" PRIx64 "\n", bench.digest());
  print_result(bench.failed() == 0, bench.attempted(), bench.failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Pin glibc's allocation policy (setting the mmap threshold also turns
  // off its dynamic adjustment). Left dynamic, whether a 4 MiB ring bank is
  // a fresh zero-filled mapping or recycled heap depends on which
  // simulations ran before it, which moves set-up cost by up to 6x with the
  // input order. Pinned, banks up to 32 MiB come from the heap and freed
  // heap is kept, so after the warm-up every simulation recycles memory
  // whatever the order; the first-touch cost lands in setup_s.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
