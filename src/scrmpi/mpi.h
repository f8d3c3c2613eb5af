// scrmpi public API -- the MPI bindings layer.
//
// One Mpi instance per process (rank), bound to a channel device. The
// subset implemented is what the paper's evaluation and our examples use:
// blocking/nonblocking point-to-point with tag+source matching and
// wildcards, communicator dup/split, and the collectives -- each collective
// available both as MPICH's point-to-point tree algorithm and (on devices
// with hardware multicast, i.e. SCRAMNet) as the paper's single-step
// BBP-multicast implementation of MPI_Bcast / MPI_Barrier.
#pragma once

#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "scrmpi/adi.h"
#include "scrmpi/types.h"

namespace scrnet::obs {
class Counters;
}

namespace scrnet::tune {
class DecisionTable;
}

namespace scrnet::scrmpi {

/// A communicator: an ordered group of world ranks plus context ids that
/// isolate its point-to-point and collective traffic.
class Comm {
 public:
  Comm() = default;
  Comm(u16 base_ctx, std::vector<u32> members)
      : base_ctx_(base_ctx), members_(std::move(members)) {}

  u32 size() const { return static_cast<u32>(members_.size()); }
  u16 p2p_ctx() const { return static_cast<u16>(base_ctx_ * 2); }
  u16 coll_ctx() const { return static_cast<u16>(base_ctx_ * 2 + 1); }
  const std::vector<u32>& members() const { return members_; }

  /// World rank of communicator rank r.
  u32 world_of(u32 r) const { return members_.at(r); }
  /// Communicator rank of a world rank; -1 if not a member.
  i32 rank_of_world(u32 world) const {
    for (u32 i = 0; i < members_.size(); ++i)
      if (members_[i] == world) return static_cast<i32>(i);
    return -1;
  }

 private:
  u16 base_ctx_ = 0;
  std::vector<u32> members_;
};

/// Per-rank MPI usage statistics (a PMPI-style accounting layer).
struct CallStats {
  u64 sends = 0, recvs = 0;
  u64 bcasts = 0, barriers = 0, reduces = 0, gathers = 0, scatters = 0;
  u64 allreduces = 0, allgathers = 0;
  u64 bytes_sent = 0, bytes_received = 0;
  SimTime time_in_mpi = 0;  // virtual time spent inside blocking MPI calls
};

class Mpi {
 public:
  /// Construct the MPI library instance for this rank over `dev`.
  explicit Mpi(ChannelDevice& dev, LayerCosts costs = {});

  // -- environment ---------------------------------------------------------
  const Comm& world() const { return world_; }
  i32 rank(const Comm& c) const { return c.rank_of_world(engine_.rank()); }
  u32 size(const Comm& c) const { return c.size(); }

  /// Select the MPI_Bcast / MPI_Barrier implementation (Figures 5 and 6
  /// compare kPointToPoint against kNativeMcast; the full zoo lives in
  /// coll.h). The default, kAuto, consults the sweep-generated decision
  /// table per (device, op, nodes, bytes) -- see src/tune/ and
  /// docs/collectives.md. kNativeMcast on a device without hardware
  /// multicast falls back to the binomial tree.
  void set_bcast_algo(CollAlgo a) { bcast_algo_ = a; }
  void set_barrier_algo(CollAlgo a) { barrier_algo_ = a; }

  /// MPI_Allreduce algorithm (bench/abl_allreduce compares these).
  using AllreduceAlgo = scrmpi::AllreduceAlgo;
  void set_allreduce_algo(AllreduceAlgo a) { allreduce_algo_ = a; }

  /// MPI_Allgather algorithm.
  void set_allgather_algo(AllgatherAlgo a) { allgather_algo_ = a; }

  /// Override the decision table kAuto consults (default:
  /// DecisionTable::builtin(), the compiled-in sweep result). Tests inject
  /// tables here. Not owned; must outlive the Mpi instance.
  void set_decision_table(const tune::DecisionTable* t) { table_ = t; }

  Engine& engine() { return engine_; }

  // -- point to point ------------------------------------------------------
  /// Blocking send. The returned status carries err = kTimedOut when the
  /// engine's op_timeout (or the device's bounded wait) expired before the
  /// send could complete; existing callers may ignore it.
  MpiStatus send(const void* buf, u32 count, Datatype dt, i32 dest, i32 tag,
                 const Comm& comm);
  MpiStatus recv(void* buf, u32 count, Datatype dt, i32 src, i32 tag,
                 const Comm& comm);
  Request isend(const void* buf, u32 count, Datatype dt, i32 dest, i32 tag,
                const Comm& comm);
  Request irecv(void* buf, u32 count, Datatype dt, i32 src, i32 tag,
                const Comm& comm);
  MpiStatus wait(Request r, const Comm& comm);
  void waitall(std::span<Request> rs, const Comm& comm);
  /// Waits for any request to complete; returns its index in `rs` and its
  /// status. Completed entries are invalidated (like MPI_Waitany). When
  /// op_timeout expires first: index rs.size(), err = kTimedOut, and every
  /// request stays valid.
  std::pair<usize, MpiStatus> waitany(std::span<Request> rs, const Comm& comm);
  MpiStatus probe(i32 src, i32 tag, const Comm& comm);
  std::optional<MpiStatus> iprobe(i32 src, i32 tag, const Comm& comm);
  MpiStatus sendrecv(const void* sbuf, u32 scount, Datatype sdt, i32 dest,
                     i32 stag, void* rbuf, u32 rcount, Datatype rdt, i32 src,
                     i32 rtag, const Comm& comm);

  // -- collectives ---------------------------------------------------------
  void bcast(void* buf, u32 count, Datatype dt, i32 root, const Comm& comm);
  void barrier(const Comm& comm);
  void reduce(const void* sendbuf, void* recvbuf, u32 count, Datatype dt,
              ReduceOp op, i32 root, const Comm& comm);
  void allreduce(const void* sendbuf, void* recvbuf, u32 count, Datatype dt,
                 ReduceOp op, const Comm& comm);
  void gather(const void* sendbuf, u32 count, Datatype dt, void* recvbuf,
              i32 root, const Comm& comm);
  void scatter(const void* sendbuf, void* recvbuf, u32 count, Datatype dt,
               i32 root, const Comm& comm);
  void allgather(const void* sendbuf, u32 count, Datatype dt, void* recvbuf,
                 const Comm& comm);
  /// Personalized all-to-all: rank i's j-th block lands in rank j's i-th
  /// block. `count` elements per block.
  void alltoall(const void* sendbuf, void* recvbuf, u32 count, Datatype dt,
                const Comm& comm);

  /// Per-rank usage counters (virtual time + calls + bytes).
  const CallStats& stats() const { return stats_; }

  /// Publish stats() plus the engine's packet count into the registry
  /// under `group` (e.g. "mpi.rank0").
  void publish_counters(obs::Counters& c, std::string_view group) const;

  // -- communicator management --------------------------------------------
  /// Collective over `comm`: all members must call in the same order.
  Comm dup(const Comm& comm);
  /// Collective: groups by color, ordered by (key, rank). Color < 0 yields
  /// an empty communicator for that caller.
  Comm split(const Comm& comm, i32 color, i32 key);

 private:
  /// The paper's BBP-multicast implementations (engine collective
  /// transport, not point-to-point; the p2p zoo lives in coll.cc).
  void bcast_native(void* buf, u32 bytes, i32 root, const Comm& comm);
  void barrier_native(const Comm& comm);

  /// Resolve selector `a` for one call of `op`: kAuto takes the decision
  /// table's pick, read by `from_name`, and an unknown name falls back to
  /// `fallback`; so does kNativeMcast on a device without hardware
  /// multicast.
  template <typename Algo>
  Algo resolve(Algo a, Algo (*from_name)(std::string_view, Algo),
               Algo fallback, std::string_view op, u32 nodes, u32 bytes);
  std::span<const u8> as_bytes(const void* p, u32 count, Datatype dt) const {
    return {static_cast<const u8*>(p), static_cast<usize>(count) * datatype_size(dt)};
  }
  std::span<u8> as_bytes(void* p, u32 count, Datatype dt) const {
    return {static_cast<u8*>(p), static_cast<usize>(count) * datatype_size(dt)};
  }
  /// All world ranks in comm except this one (multicast destination list).
  std::vector<u32> others(const Comm& comm) const;

  /// RAII scope accumulating virtual time into stats_.time_in_mpi.
  class TimedCall;

  Engine engine_;
  Comm world_;
  CallStats stats_;
  u16 next_base_ctx_ = 1;
  std::map<u16, u32> barrier_epoch_;  // coll ctx -> last epoch used
  std::map<std::pair<u16, u32>, u32> bcast_count_;  // (coll ctx, root) -> last native bcast
  CollAlgo bcast_algo_ = CollAlgo::kAuto;
  CollAlgo barrier_algo_ = CollAlgo::kAuto;
  AllreduceAlgo allreduce_algo_ = AllreduceAlgo::kAuto;
  AllgatherAlgo allgather_algo_ = AllgatherAlgo::kAuto;
  const tune::DecisionTable* table_ = nullptr;  // nullptr: process table
};

/// Element-wise reduction: recv[i] = op(recv[i], in[i]).
void apply_reduce(Datatype dt, ReduceOp op, void* acc, const void* in, u32 count);

}  // namespace scrnet::scrmpi
