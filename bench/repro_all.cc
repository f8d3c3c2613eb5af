// repro_all: run the entire figure/table/ablation suite and diff every
// output against the committed golden files in bench/golden/.
//
// Each bench binary is launched as a subprocess (stdout+stderr captured)
// with --jobs 1: parallelism lives at the process level here, so the
// children must not each start their own sweep threads on top. The
// subprocess launches themselves are one sweep::Runner::map -- a thread
// blocks in popen() per child -- which makes the whole suite take roughly
// slowest-binary-wall-clock on an idle multicore box.
//
//   repro_all [--jobs N] [--update-golden] [--no-compare]
//
// The suite binaries are this binary's siblings; the golden files are the
// source tree's bench/golden/. Exit status is the number of
// mismatching/failed binaries (0 = suite reproduces bit-exactly), or 2
// with a usage line, before any binary runs, on an argument not listed
// above. --update-golden rewrites the golden files from the current
// outputs instead of diffing (then exits 0 unless a binary itself
// failed). --no-compare skips the golden diff entirely and fails
// only on nonzero child exits: the mode for runs under perturbing env
// knobs (e.g. SCRNET_RNDV_EAGER_MAX forcing the rendezvous path), where
// the outputs legitimately differ and the check is "every figure still
// completes" -- a deadlock/crash canary, not an identity diff.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/fiber.h"
#include "sweep/runner.h"

using namespace scrnet;

namespace {

/// Committed reference wall-clock for the full suite (seconds) on this
/// build's fiber switch, each measured with --jobs 1 on a 4-core Xeon @
/// 2.1 GHz (Release build, median of several runs). The portable ucontext
/// switch makes a sigprocmask system call per switch, so its suite runs
/// several times longer. The suite printing more than 1.5x its reference
/// is a perf-regression canary: it warns (stdout only, exit status
/// unchanged) so golden identity and timing drift stay separate signals.
/// Quadratic overflow migration coming back alone would add ~13 s on the
/// asm switch and trip it.
#if defined(SCRNET_FIBER_BACKEND_ASM)
constexpr double kReferenceWallS = 11.4;
constexpr const char* kFiberBackend = "asm";
#else
constexpr double kReferenceWallS = 52.6;
constexpr const char* kFiberBackend = "ucontext";
#endif

const std::vector<std::string> kSuite{
    "fig1_latency",      "fig2_api_networks",     "fig3_mpi_networks",
    "fig4_bcast_vs_p2p", "fig5_mpi_bcast",        "fig6_barrier",
    "tbl_ring_throughput", "abl_packet_mode",     "abl_ring_scaling",
    "abl_interrupt_recv", "abl_channel_interface", "abl_ethernet_switch",
    "abl_hybrid",        "abl_hierarchy",         "abl_dma",
    "abl_allreduce",     "abl_bcast",             "flt_scenarios",
};

struct RunResult {
  std::string output;   // captured stdout+stderr
  double wall_s = 0.0;
  int exit_code = -1;
};

/// Directory holding this binary (the suite binaries are its siblings).
std::string self_dir(const char* argv0) {
  std::string s(argv0);
  const auto slash = s.rfind('/');
  return slash == std::string::npos ? std::string(".") : s.substr(0, slash);
}

RunResult run_one(const std::string& bindir, const std::string& name) {
  RunResult r;
  // Run the child sequential; quoting is safe because bindir comes from
  // argv[0], not from untrusted input.
  const std::string cmd = "'" + bindir + "/" + name + "' --jobs 1 2>&1";
  const auto t0 = std::chrono::steady_clock::now();
  FILE* p = popen(cmd.c_str(), "r");
  if (!p) return r;
  char buf[4096];
  usize n;
  while ((n = fread(buf, 1, sizeof buf, p)) > 0) r.output.append(buf, n);
  const int status = pclose(p);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return r;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

bool write_file(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << data;
  return f.good();
}

/// First differing line, for a compact mismatch report.
std::string first_diff(const std::string& want, const std::string& got) {
  std::istringstream a(want), b(got);
  std::string la, lb;
  usize line = 0;
  while (true) {
    ++line;
    const bool ea = !std::getline(a, la);
    const bool eb = !std::getline(b, lb);
    if (ea && eb) return "(identical?)";
    if (ea != eb || la != lb) {
      std::ostringstream ss;
      ss << "line " << line << ":\n    golden: " << (ea ? "<eof>" : la)
         << "\n    got:    " << (eb ? "<eof>" : lb);
      return ss.str();
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const sweep::Args args =
      sweep::parse_args(argc, argv, {"--update-golden", "--no-compare"});
  const std::string bindir = self_dir(argv[0]);
  const std::string golden_dir = SCRNET_GOLDEN_DIR;
  const bool update = args.has("--update-golden");
  const bool compare = !args.has("--no-compare");

  sweep::Runner runner(args.jobs);
  std::cout << "repro_all: " << kSuite.size()
            << " binaries, jobs=" << runner.jobs() << ", golden=" << golden_dir
            << (update ? " (UPDATING)" : compare ? "" : " (NO COMPARE)")
            << "\n";

  const auto suite_t0 = std::chrono::steady_clock::now();
  const std::vector<RunResult> results =
      runner.map("repro", kSuite, [&bindir](const std::string& name) {
        return run_one(bindir, name);
      });

  int bad = 0;
  for (usize i = 0; i < kSuite.size(); ++i) {
    const std::string& name = kSuite[i];
    const RunResult& r = results[i];
    char wall[32];
    std::snprintf(wall, sizeof wall, "%6.2fs", r.wall_s);
    if (r.exit_code != 0) {
      ++bad;
      std::cout << "  [FAIL] " << name << "  " << wall << "  exit="
                << r.exit_code << "\n";
      continue;
    }
    if (!compare) {
      std::cout << "  [RAN]  " << name << "  " << wall << "\n";
      continue;
    }
    const std::string gpath = golden_dir + "/" + name + ".txt";
    if (update) {
      if (write_file(gpath, r.output)) {
        std::cout << "  [GOLD] " << name << "  " << wall << "  -> " << gpath
                  << "\n";
      } else {
        ++bad;
        std::cout << "  [FAIL] " << name << "  cannot write " << gpath << "\n";
      }
      continue;
    }
    std::string want;
    if (!read_file(gpath, &want)) {
      ++bad;
      std::cout << "  [MISS] " << name << "  " << wall << "  no golden file "
                << gpath << "\n";
      continue;
    }
    if (want == r.output) {
      std::cout << "  [OK]   " << name << "  " << wall << "\n";
    } else {
      ++bad;
      std::cout << "  [DIFF] " << name << "  " << wall << "  first mismatch at "
                << first_diff(want, r.output) << "\n";
    }
  }

  const auto suite_t1 = std::chrono::steady_clock::now();
  const double total_s =
      std::chrono::duration<double>(suite_t1 - suite_t0).count();
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2fs", total_s);
  std::cout << "repro_all: " << (bad == 0 ? "PASS" : "FAIL") << " ("
            << kSuite.size() - static_cast<usize>(bad) << "/" << kSuite.size()
            << (compare ? " identical" : " completed") << "), suite wall-clock "
            << buf << "\n";
  if (total_s > 1.5 * kReferenceWallS) {
    char ref[96];
    std::snprintf(ref, sizeof ref, "%.2fs (1.5x the %s-fiber reference %.1fs)",
                  1.5 * kReferenceWallS, kFiberBackend, kReferenceWallS);
    std::cout << "repro_all: WARN suite wall-clock " << buf
              << " exceeds budget " << ref
              << " -- investigate simulator perf regressions\n";
  }
  return bad;
}
