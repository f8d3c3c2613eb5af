// Seeded adversarial timing: the concurrency oracle for code on replicated,
// non-coherent SCRAMNet memory. Per seed it draws the ring's hop latency in
// 0.4-8.4 us and its packet mode, plus a 0-20 us start offset and an Rng
// stream per process; every run is cut off at kTimeLimit of virtual time.
// A failing seed replays exactly: call the case's run function with it.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "scramnet/config.h"
#include "sim/simulation.h"

namespace scrnet::seeded {

inline constexpr SimTime kTimeLimit = ms(50);

struct Timing {
  Timing(u64 seed, u32 procs, scramnet::RingConfig base) : ring(base) {
    Rng r(seed);
    ring.hop_latency = ns(400) + static_cast<SimTime>(r.below(ns(8000) + 1));
    ring.mode = r.chance(0.5) ? scramnet::PacketMode::kFixed4
                              : scramnet::PacketMode::kVariable;
    for (u32 i = 0; i < procs; ++i) {
      start.push_back(static_cast<SimTime>(r.below(us(20) + 1)));
      rng.emplace_back(r());
    }
  }

  /// Process `id`'s first call: process 0 arms the time limit, then each
  /// waits out its start offset.
  void enter(sim::Process& p, u32 id) const {
    if (id == 0) {
      sim::Simulation& sim = p.simulation();
      sim.post_at(kTimeLimit, [&sim] {
        if (sim.live_processes() > 0)
          throw std::runtime_error("seeded run passed its virtual time limit");
      });
    }
    p.delay(start[id]);
  }

  scramnet::RingConfig ring;
  std::vector<SimTime> start;
  std::vector<Rng> rng;
};

/// The first of seeds 0..seeds-1 on which `run(seed)` returns false,
/// throws (time limit, deadlock, a process that threw) or records a gtest
/// failure; nullopt when none does.
template <typename Run>
std::optional<u64> first_failing_seed(u64 seeds, Run run) {
  for (u64 s = 0; s < seeds; ++s) {
    bool ok = false;
    try {
      ok = run(s);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << s << ": " << e.what();
    }
    if (!ok || ::testing::Test::HasFailure()) return s;
  }
  return std::nullopt;
}

}  // namespace scrnet::seeded
