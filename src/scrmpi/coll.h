// The collective-algorithm zoo (ROADMAP item 4).
//
// Every algorithm here is expressed over blocking point-to-point operations
// through the full MPI binding layer -- exactly like MPICH collectives
// calling MPI_Send / MPI_Recv internally, which is where their cost comes
// from. The native BBP-multicast implementations stay in mpi.cc (they use
// the engine's collective transport, not point-to-point).
//
// Algorithm sources: MPICH 1.x (binomial trees, combine-release barrier,
// recursive doubling), Rabenseifner's allreduce and the van de Geijn
// scatter-allgather bcast (arXiv cs/0408034), and the ring / pipelined
// chain family surveyed in arXiv 1603.06809. docs/collectives.md catalogs
// the zoo and the sweep-driven decision table (src/tune/) that kAuto
// consults to choose among them.
//
// Matching discipline: each op family reuses one reserved tag. Within a
// (sender, receiver) pair every algorithm posts its receives in the same
// order the peer posts its sends -- the engine's FIFO non-overtaking then
// matches them correctly even across back-to-back collectives on the same
// communicator.
#pragma once

#include <span>

#include "scrmpi/adi.h"
#include "scrmpi/mpi.h"
#include "scrmpi/types.h"

namespace scrnet::scrmpi::coll {

/// Reserved tags for collective phases on the coll context -- one per op
/// family (see the matching-discipline note above). mpi.cc shares this
/// registry for the collectives it keeps (reduce/gather/scatter/...).
namespace tag {
inline constexpr i32 kBcast = 0x7001;
inline constexpr i32 kBarrierUp = 0x7002;
inline constexpr i32 kBarrierDown = 0x7003;
inline constexpr i32 kReduce = 0x7004;
inline constexpr i32 kGather = 0x7005;
inline constexpr i32 kScatter = 0x7006;
inline constexpr i32 kSplit = 0x7007;
inline constexpr i32 kAlltoall = 0x7008;
inline constexpr i32 kAllreduce = 0x7009;
inline constexpr i32 kDissem = 0x700A;
inline constexpr i32 kAllgather = 0x700B;
}  // namespace tag

/// Segment size for the pipelined chain broadcast. Fixed (not tuned per
/// call) so bench outputs are stable.
inline constexpr u32 kChainSegmentBytes = 4096;

/// Execution context handed to every algorithm: this rank's engine and its
/// position in the communicator. send/recv go through the binding-cost
/// path, one binding charge per operation, like MPICH collectives calling
/// MPI_Send / MPI_Recv internally (this is where their cost comes from).
struct Ctx {
  Engine& eng;
  const Comm& comm;
  u32 me;  // comm rank
  u32 np;  // comm size

  Ctx(Engine& e, const Comm& c)
      : eng(e),
        comm(c),
        me(static_cast<u32>(c.rank_of_world(e.rank()))),
        np(c.size()) {}

  void send(u32 dst, i32 tag, std::span<const u8> data);
  void recv(u32 src, i32 tag, std::span<u8> buf);
  /// Nonblocking pair, then wait both (the recv first, like MPI_Sendrecv).
  void sendrecv(u32 dst, std::span<const u8> sdata, u32 src,
                std::span<u8> rbuf, i32 tag);
};

// -- broadcast --------------------------------------------------------------
// All variants broadcast `bytes` from comm rank `root` in place in `buf`.

/// MPICH's binomial tree: log2(n) rounds, every round doubles the set of
/// ranks holding the data. Latency-optimal for short messages.
void bcast_binomial(Ctx& c, u8* buf, u32 bytes, u32 root);

/// Van de Geijn / Rabenseifner long-message bcast: binomial scatter of
/// ceil(bytes/n) segments, then a ring allgather. Each byte crosses the
/// network ~2x instead of log2(n)x.
void bcast_scatter_allgather(Ctx& c, u8* buf, u32 bytes, u32 root);

/// Unsegmented relay around the logical ring: n-1 store-and-forward hops.
/// The baseline the chain variant pipelines.
void bcast_ring(Ctx& c, u8* buf, u32 bytes, u32 root);

/// Segmented pipelined chain: the ring relay split into
/// kChainSegmentBytes pieces so hop k forwards segment i while segment
/// i+1 is still in flight from hop k-1.
void bcast_chain(Ctx& c, u8* buf, u32 bytes, u32 root);

// -- barrier ----------------------------------------------------------------

/// MPICH 1.x: tree combine to rank 0, then a binomial release.
void barrier_combine_release(Ctx& c);

/// Dissemination barrier: ceil(log2(n)) rounds; in round r every rank
/// sends to (me + 2^r) mod n and receives from (me - 2^r) mod n. No
/// coordinator, ~half the critical path of combine-release.
void barrier_dissemination(Ctx& c);

// -- allreduce --------------------------------------------------------------
// All variants reduce in place: recvbuf enters holding the local
// contribution and exits holding the full reduction on every rank.
// Commutative ops only (all of ReduceOp is).

/// MPICH's recursive doubling: fold non-power-of-two ranks into even
/// neighbors, XOR-exchange whole vectors among the survivors, unfold.
void allreduce_recursive_doubling(Ctx& c, void* recvbuf, u32 count,
                                  Datatype dt, ReduceOp op);

/// Rabenseifner: recursive-halving reduce-scatter, then recursive-doubling
/// allgather of the reduced blocks. Each byte crosses ~2x instead of
/// log2(n)x; wins for long vectors.
void allreduce_rabenseifner(Ctx& c, void* recvbuf, u32 count, Datatype dt,
                            ReduceOp op);

/// Ring: n-1 reduce-scatter steps then n-1 allgather steps over 1/n-sized
/// blocks. Bandwidth-optimal; latency grows linearly in n.
void allreduce_ring(Ctx& c, void* recvbuf, u32 count, Datatype dt,
                    ReduceOp op);

// -- allgather --------------------------------------------------------------

/// Ring allgather of n uniform blocks: the caller has already placed its
/// own block at recvbuf + me*block_bytes; after n-1 neighbor-exchange
/// steps every rank holds all n blocks. Each block travels once.
void allgather_ring(Ctx& c, u8* recvbuf, u32 block_bytes);

// -- decision-table name lookups --------------------------------------------
// Inverse of the *_algo_name functions; `fallback` on unknown/empty names
// so a stale table degrades to a safe algorithm instead of throwing.

CollAlgo coll_algo_from_name(std::string_view name, CollAlgo fallback);
AllreduceAlgo allreduce_algo_from_name(std::string_view name,
                                       AllreduceAlgo fallback);
AllgatherAlgo allgather_algo_from_name(std::string_view name,
                                       AllgatherAlgo fallback);

}  // namespace scrnet::scrmpi::coll
