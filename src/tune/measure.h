// Collective measurement kernel shared by the tuner (src/tune/tuner.cc)
// and the broadcast ablation (bench/abl_bcast.cc). Both iterate the same
// grid, so the ablation's measured crossovers and the decision table's
// switch points agree by construction.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace scrnet::tune {

/// The sweep grid. Sizes are payload bytes for bcast, per-rank vector
/// bytes for allreduce, and per-rank block bytes for allgather; barrier
/// ignores the size axis.
inline const std::vector<u32> kSweepSizes{8, 256, 4096, 32768, 65536};
inline const std::vector<u32> kSweepNodes{4, 8, 12};
inline const std::vector<std::string> kSweepDevices{"bbp", "sock", "rdma"};
inline const std::vector<std::string> kSweepOps{"bcast", "barrier",
                                               "allreduce", "allgather"};

/// One cell of the sweep: a device, an op, one algorithm for that op, and
/// the grid coordinates.
struct MeasureSpec {
  std::string device;  // "bbp" | "sock" | "rdma"
  std::string op;      // "bcast" | "barrier" | "allreduce" | "allgather"
  std::string algo;    // algorithm name for the op (types.h *_algo_name)
  u32 nodes = 4;
  u32 bytes = 0;       // see the size-axis note above; ignored for barrier

  static constexpr u32 iters = 4;   // timed rounds per cell
  static constexpr u32 warmup = 1;  // untimed rounds before them
};

/// Algorithm names the tuner races for (device, op). Native multicast is
/// only a candidate on the device that has the hardware (bbp).
std::vector<std::string> candidates(std::string_view device,
                                    std::string_view op);

/// Average virtual-time latency (us) of one collective invocation:
/// root-start to last-rank-done for the data collectives, steady-state
/// per-call latency for barrier. One self-contained simulation per call;
/// deterministic, so safe to fan out over sweep::Runner.
double measure_us(const MeasureSpec& spec);

}  // namespace scrnet::tune
