#include "scrmpi/mpi.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "obs/counters.h"
#include "obs/trace.h"
#include "scrmpi/coll.h"
#include "tune/table.h"

namespace scrnet::scrmpi {

namespace {
// Reserved collective tags (shared registry: coll.h).
constexpr i32 kTagReduce = coll::tag::kReduce;
constexpr i32 kTagGather = coll::tag::kGather;
constexpr i32 kTagScatter = coll::tag::kScatter;
constexpr i32 kTagSplit = coll::tag::kSplit;
constexpr i32 kTagAlltoall = coll::tag::kAlltoall;

/// World rank of `comm` source rank `src`; kAnySource stays a wildcard.
i32 world_source(const Comm& comm, i32 src) {
  return src == kAnySource ? kAnySource
                           : static_cast<i32>(comm.world_of(static_cast<u32>(src)));
}

/// `st` with its world-rank source read back as a rank of `comm`.
MpiStatus comm_source(const Comm& comm, MpiStatus st) {
  if (st.source != kAnySource) st.source = comm.rank_of_world(static_cast<u32>(st.source));
  return st;
}
}  // namespace

/// RAII scope accumulating virtual time spent inside a blocking MPI call.
class Mpi::TimedCall {
 public:
  explicit TimedCall(Mpi& m) : m_(m), t0_(m.engine_.device().now()) {}
  ~TimedCall() { m_.stats_.time_in_mpi += m_.engine_.device().now() - t0_; }
  TimedCall(const TimedCall&) = delete;
  TimedCall& operator=(const TimedCall&) = delete;

 private:
  Mpi& m_;
  SimTime t0_;
};

Mpi::Mpi(ChannelDevice& dev, LayerCosts costs) : engine_(dev, costs) {
  std::vector<u32> all(dev.size());
  std::iota(all.begin(), all.end(), 0u);
  world_ = Comm(0, std::move(all));
}

std::vector<u32> Mpi::others(const Comm& comm) const {
  std::vector<u32> out;
  out.reserve(comm.size() - 1);
  for (u32 w : comm.members())
    if (w != engine_.rank()) out.push_back(w);
  return out;
}

// ---------------------------------------------------------------------------
// Point to point
// ---------------------------------------------------------------------------

Request Mpi::isend(const void* buf, u32 count, Datatype dt, i32 dest, i32 tag,
                   const Comm& comm) {
  assert(dest >= 0 && static_cast<u32>(dest) < comm.size() && "bad dest rank");
  engine_.device().cpu(LayerCosts::binding);
  return engine_.isend(comm.world_of(static_cast<u32>(dest)), comm.p2p_ctx(), tag,
                       as_bytes(buf, count, dt));
}

Request Mpi::irecv(void* buf, u32 count, Datatype dt, i32 src, i32 tag,
                   const Comm& comm) {
  assert((src == kAnySource || (src >= 0 && static_cast<u32>(src) < comm.size())) &&
         "bad source rank");
  engine_.device().cpu(LayerCosts::binding);
  return engine_.irecv(world_source(comm, src), comm.p2p_ctx(), tag,
                       as_bytes(buf, count, dt));
}

MpiStatus Mpi::send(const void* buf, u32 count, Datatype dt, i32 dest, i32 tag,
                    const Comm& comm) {
  TRACE_SPAN(obs::Layer::kMpi, engine_.rank(), "mpi.send", engine_.device());
  TimedCall tc(*this);
  ++stats_.sends;
  stats_.bytes_sent += static_cast<u64>(count) * datatype_size(dt);
  return wait(isend(buf, count, dt, dest, tag, comm), comm);
}

MpiStatus Mpi::recv(void* buf, u32 count, Datatype dt, i32 src, i32 tag,
                    const Comm& comm) {
  TRACE_SPAN(obs::Layer::kMpi, engine_.rank(), "mpi.recv", engine_.device());
  TimedCall tc(*this);
  ++stats_.recvs;
  const MpiStatus st = wait(irecv(buf, count, dt, src, tag, comm), comm);
  stats_.bytes_received += st.count_bytes;
  return st;
}

MpiStatus Mpi::wait(Request r, const Comm& comm) {
  return comm_source(comm, engine_.wait(r));
}

void Mpi::waitall(std::span<Request> rs, const Comm& comm) {
  for (Request& r : rs) wait(r, comm);
}

std::pair<usize, MpiStatus> Mpi::waitany(std::span<Request> rs, const Comm& comm) {
  const auto [i, st] = engine_.waitany(rs);
  return {i, comm_source(comm, st)};
}

MpiStatus Mpi::probe(i32 src, i32 tag, const Comm& comm) {
  return comm_source(comm, engine_.probe(world_source(comm, src), comm.p2p_ctx(), tag));
}

std::optional<MpiStatus> Mpi::iprobe(i32 src, i32 tag, const Comm& comm) {
  std::optional<MpiStatus> st =
      engine_.iprobe(world_source(comm, src), comm.p2p_ctx(), tag);
  if (st) *st = comm_source(comm, *st);
  return st;
}

MpiStatus Mpi::sendrecv(const void* sbuf, u32 scount, Datatype sdt, i32 dest,
                        i32 stag, void* rbuf, u32 rcount, Datatype rdt, i32 src,
                        i32 rtag, const Comm& comm) {
  Request rr = irecv(rbuf, rcount, rdt, src, rtag, comm);
  Request sr = isend(sbuf, scount, sdt, dest, stag, comm);
  MpiStatus st = wait(rr, comm);
  wait(sr, comm);
  return st;
}

// The point-to-point tree/ring/chain algorithm bodies live in coll.cc (the
// zoo); dispatch below resolves a selector and hands a coll::Ctx over.

// ---------------------------------------------------------------------------
// Collectives: the paper's BBP-multicast implementations
// ---------------------------------------------------------------------------

void Mpi::bcast_native(void* buf, u32 bytes, i32 root, const Comm& comm) {
  // Paper Section 4: "the process that is the root determines the processes
  // in the group [and] uses the multicast operation in the BBP API to
  // broadcast the data to each process in the group. ... not synchronizing
  // ... multiple MPI_Bcast operations are matched in order."
  // Payloads above the device's mcast cap (for BBP: the sender's billboard
  // data partition, which shrinks as procs grow) are chunked -- a single
  // oversized post would be rejected by the endpoint and, collective
  // transport being fire-and-forget, silently dropped with every receiver
  // blocked in coll_wait_data. Chunks from one root are matched in order
  // (the paper's non-synchronizing semantics), so receivers just
  // accumulate until the announced byte count is complete. A receiver
  // whose wait times out (op_timeout) returns with the bytes it has, as
  // a timed-out receive in the tree algorithms does. Every member counts
  // the native bcasts per (communicator, root), and the root stamps its
  // count on each chunk (aux), so chunks that arrive after their receiver
  // timed out are dropped instead of feeding the next bcast.
  const u32 me = static_cast<u32>(rank(comm));
  const u32 cap = std::max<u32>(4, engine_.device().mcast_cap());
  const u32 root_world = comm.world_of(static_cast<u32>(root));
  const u32 count = ++bcast_count_[{comm.coll_ctx(), root_world}];
  if (me == static_cast<u32>(root)) {
    if (comm.size() == 1) return;
    const std::vector<u32> dsts = others(comm);
    u32 off = 0;
    do {
      const std::span<const u8> chunk{static_cast<const u8*>(buf) + off,
                                      std::min(bytes - off, cap)};
      engine_.coll_mcast(dsts, comm.coll_ctx(), PktKind::kCollData, count, chunk);
      off += static_cast<u32>(chunk.size());
    } while (off < bytes);
    return;
  }
  u32 off = 0;
  do {
    const std::optional<std::vector<u8>> chunk =
        engine_.coll_wait_data(comm.coll_ctx(), root_world, count);
    if (!chunk) return;
    const std::vector<u8>& data = *chunk;
    if (data.size() > bytes - off || (data.empty() && bytes != off))
      throw std::runtime_error("scrmpi: bcast size mismatch across ranks");
    if (!data.empty()) std::memcpy(static_cast<u8*>(buf) + off, data.data(), data.size());
    off += static_cast<u32>(data.size());
  } while (off < bytes);
}

void Mpi::barrier_native(const Comm& comm) {
  // Paper Section 4: rank 0 coordinates -- it collects a null message from
  // every member, then multicasts a null release to all of them. Like the
  // tree barriers, a wait that times out (op_timeout) does not stop the
  // algorithm: the coordinator releases whoever it can reach.
  const u32 size = comm.size();
  if (size == 1) return;
  const u32 me = static_cast<u32>(rank(comm));
  const u16 ctx = comm.coll_ctx();
  const u32 epoch = ++barrier_epoch_[ctx];

  if (me == 0) {
    (void)engine_.coll_wait_arrivals(ctx, epoch, size - 1);
    engine_.coll_mcast(others(comm), ctx, PktKind::kCollRelease, epoch, {});
  } else {
    engine_.coll_send(comm.world_of(0), ctx, PktKind::kCollBarrier, epoch, {});
    (void)engine_.coll_wait_release(ctx, epoch);
  }
}

// ---------------------------------------------------------------------------
// Selector resolution (the decision table behind kAuto)
// ---------------------------------------------------------------------------

template <typename Algo>
Algo Mpi::resolve(Algo a, Algo (*from_name)(std::string_view, Algo),
                  Algo fallback, std::string_view op, u32 nodes, u32 bytes) {
  if (a == Algo::kAuto) {
    const tune::DecisionTable& t =
        table_ ? *table_ : tune::DecisionTable::builtin();
    a = from_name(t.pick(engine_.device().kind(), op, nodes, bytes), fallback);
  }
  if constexpr (std::is_same_v<Algo, CollAlgo>)
    if (a == CollAlgo::kNativeMcast && engine_.device().mcast_cap() == 0)
      a = fallback;
  return a;
}

// ---------------------------------------------------------------------------
// Collective entry points
// ---------------------------------------------------------------------------

void Mpi::bcast(void* buf, u32 count, Datatype dt, i32 root, const Comm& comm) {
  assert(root >= 0 && static_cast<u32>(root) < comm.size());
  TRACE_SPAN(obs::Layer::kMpi, engine_.rank(), "mpi.bcast", engine_.device());
  TimedCall tc(*this);
  ++stats_.bcasts;
  engine_.device().cpu(LayerCosts::binding);
  const u32 bytes = coll_bytes(count, dt);
  u8* data = static_cast<u8*>(buf);
  const u32 vroot = static_cast<u32>(root);
  coll::Ctx cx(engine_, comm);
  switch (resolve(bcast_algo_, coll::coll_algo_from_name, CollAlgo::kBinomial,
                  "bcast", comm.size(), bytes)) {
    case CollAlgo::kNativeMcast:
      bcast_native(buf, bytes, root, comm);
      break;
    case CollAlgo::kScatterAllgather:
      coll::bcast_scatter_allgather(cx, data, bytes, vroot);
      break;
    case CollAlgo::kRing:
      coll::bcast_ring(cx, data, bytes, vroot);
      break;
    case CollAlgo::kChain:
      coll::bcast_chain(cx, data, bytes, vroot);
      break;
    default:  // kPointToPoint / kBinomial (and any stale selector)
      coll::bcast_binomial(cx, data, bytes, vroot);
      break;
  }
}

void Mpi::barrier(const Comm& comm) {
  TRACE_SPAN(obs::Layer::kMpi, engine_.rank(), "mpi.barrier", engine_.device());
  TimedCall tc(*this);
  ++stats_.barriers;
  engine_.device().cpu(LayerCosts::binding);
  coll::Ctx cx(engine_, comm);
  switch (resolve(barrier_algo_, coll::coll_algo_from_name,
                  CollAlgo::kPointToPoint, "barrier", comm.size(), 0)) {
    case CollAlgo::kNativeMcast:
      barrier_native(comm);
      break;
    case CollAlgo::kDissemination:
      coll::barrier_dissemination(cx);
      break;
    default:  // kPointToPoint and the bcast-only selectors
      coll::barrier_combine_release(cx);
      break;
  }
}

void Mpi::reduce(const void* sendbuf, void* recvbuf, u32 count, Datatype dt,
                 ReduceOp op, i32 root, const Comm& comm) {
  TRACE_SPAN(obs::Layer::kMpi, engine_.rank(), "mpi.reduce", engine_.device());
  TimedCall tc(*this);
  ++stats_.reduces;
  engine_.device().cpu(LayerCosts::binding);
  const u32 size = comm.size();
  const u32 me = static_cast<u32>(rank(comm));
  const u32 vroot = static_cast<u32>(root);
  const u32 rel = (me - vroot + size) % size;
  const u32 bytes = coll_bytes(count, dt);

  std::vector<u8> acc(bytes), tmp(bytes);
  if (bytes) std::memcpy(acc.data(), sendbuf, bytes);

  // Binomial combine toward the (virtual) root.
  coll::Ctx cx(engine_, comm);
  u32 mask = 1;
  while (mask < size) {
    if (rel & mask) {
      cx.send((rel - mask + vroot) % size, kTagReduce, acc);
      break;
    }
    if (rel + mask < size) {
      cx.recv((rel + mask + vroot) % size, kTagReduce, tmp);
      apply_reduce(dt, op, acc.data(), tmp.data(), count);
    }
    mask <<= 1;
  }
  if (me == vroot && bytes) std::memcpy(recvbuf, acc.data(), bytes);
}

void Mpi::allreduce(const void* sendbuf, void* recvbuf, u32 count, Datatype dt,
                    ReduceOp op, const Comm& comm) {
  ++stats_.allreduces;
  const u32 bytes = coll_bytes(count, dt);
  const AllreduceAlgo a =
      resolve(allreduce_algo_, coll::allreduce_algo_from_name,
              AllreduceAlgo::kReduceBcast, "allreduce", comm.size(), bytes);
  if (a == AllreduceAlgo::kReduceBcast) {
    // Composite: the inner reduce/bcast charge their own binding cost and
    // TimedCall scopes, exactly as before the zoo.
    reduce(sendbuf, recvbuf, count, dt, op, 0, comm);
    bcast(recvbuf, count, dt, 0, comm);
    return;
  }
  TimedCall tc(*this);
  engine_.device().cpu(LayerCosts::binding);
  if (bytes) std::memcpy(recvbuf, sendbuf, bytes);
  coll::Ctx cx(engine_, comm);
  switch (a) {
    case AllreduceAlgo::kRabenseifner:
      coll::allreduce_rabenseifner(cx, recvbuf, count, dt, op);
      break;
    case AllreduceAlgo::kRing:
      coll::allreduce_ring(cx, recvbuf, count, dt, op);
      break;
    default:
      coll::allreduce_recursive_doubling(cx, recvbuf, count, dt, op);
      break;
  }
}

void Mpi::gather(const void* sendbuf, u32 count, Datatype dt, void* recvbuf,
                 i32 root, const Comm& comm) {
  TimedCall tc(*this);
  ++stats_.gathers;
  engine_.device().cpu(LayerCosts::binding);
  const u32 me = static_cast<u32>(rank(comm));
  const u32 bytes = coll_bytes(count, dt);
  coll::Ctx cx(engine_, comm);
  if (me != static_cast<u32>(root)) {
    cx.send(static_cast<u32>(root), kTagGather, as_bytes(sendbuf, count, dt));
    return;
  }
  u8* out = static_cast<u8*>(recvbuf);
  if (bytes) std::memcpy(out + static_cast<usize>(me) * bytes, sendbuf, bytes);
  for (u32 r = 0; r < comm.size(); ++r) {
    if (r == me) continue;
    cx.recv(r, kTagGather, {out + static_cast<usize>(r) * bytes, bytes});
  }
}

void Mpi::scatter(const void* sendbuf, void* recvbuf, u32 count, Datatype dt,
                  i32 root, const Comm& comm) {
  TimedCall tc(*this);
  ++stats_.scatters;
  engine_.device().cpu(LayerCosts::binding);
  const u32 me = static_cast<u32>(rank(comm));
  const u32 bytes = coll_bytes(count, dt);
  coll::Ctx cx(engine_, comm);
  if (me == static_cast<u32>(root)) {
    const u8* in = static_cast<const u8*>(sendbuf);
    for (u32 r = 0; r < comm.size(); ++r) {
      if (r == me) {
        if (bytes) std::memcpy(recvbuf, in + static_cast<usize>(r) * bytes, bytes);
        continue;
      }
      cx.send(r, kTagScatter, {in + static_cast<usize>(r) * bytes, bytes});
    }
    return;
  }
  cx.recv(static_cast<u32>(root), kTagScatter, as_bytes(recvbuf, count, dt));
}

void Mpi::allgather(const void* sendbuf, u32 count, Datatype dt, void* recvbuf,
                    const Comm& comm) {
  ++stats_.allgathers;
  const u32 block = coll_bytes(count, dt);
  // The assembled result must itself fit a 32-bit wire length.
  const u64 total = static_cast<u64>(block) * comm.size();
  if (total > 0xFFFFFFFFull)
    throw std::invalid_argument(
        "scrmpi: allgather result overflows 32-bit byte count");
  if (resolve(allgather_algo_, coll::allgather_algo_from_name,
              AllgatherAlgo::kGatherBcast, "allgather", comm.size(),
              block) == AllgatherAlgo::kRing) {
    TimedCall tc(*this);
    engine_.device().cpu(LayerCosts::binding);
    const u32 me = static_cast<u32>(rank(comm));
    u8* out = static_cast<u8*>(recvbuf);
    if (block)
      std::memcpy(out + static_cast<usize>(me) * block, sendbuf, block);
    coll::Ctx cx(engine_, comm);
    coll::allgather_ring(cx, out, block);
    return;
  }
  // Composite reference: gather + bcast charge their own scopes.
  gather(sendbuf, count, dt, recvbuf, 0, comm);
  bcast(recvbuf, count * comm.size(), dt, 0, comm);
}

void Mpi::alltoall(const void* sendbuf, void* recvbuf, u32 count, Datatype dt,
                   const Comm& comm) {
  TimedCall tc(*this);
  engine_.device().cpu(LayerCosts::binding);
  const u32 me = static_cast<u32>(rank(comm));
  const u32 np = comm.size();
  const u32 bytes = coll_bytes(count, dt);
  const u8* in = static_cast<const u8*>(sendbuf);
  u8* out = static_cast<u8*>(recvbuf);
  if (bytes)
    std::memcpy(out + static_cast<usize>(me) * bytes,
                in + static_cast<usize>(me) * bytes, bytes);
  // Pairwise exchange: step i talks to (me XOR-free ring partners). Using
  // (me + i) / (me - i) keeps every step contention-balanced on the ring.
  for (u32 i = 1; i < np; ++i) {
    const u32 dst = (me + i) % np;
    const u32 src = (me + np - i) % np;
    Request rr = engine_.irecv(static_cast<i32>(comm.world_of(src)), comm.coll_ctx(),
                               kTagAlltoall, {out + static_cast<usize>(src) * bytes, bytes});
    Request sr = engine_.isend(comm.world_of(dst), comm.coll_ctx(), kTagAlltoall,
                               {in + static_cast<usize>(dst) * bytes, bytes});
    engine_.wait(rr);
    engine_.wait(sr);
  }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

void Mpi::publish_counters(obs::Counters& c, std::string_view group) const {
  c.add(group, "sends", stats_.sends);
  c.add(group, "recvs", stats_.recvs);
  c.add(group, "bcasts", stats_.bcasts);
  c.add(group, "barriers", stats_.barriers);
  c.add(group, "reduces", stats_.reduces);
  c.add(group, "gathers", stats_.gathers);
  c.add(group, "scatters", stats_.scatters);
  c.add(group, "allreduces", stats_.allreduces);
  c.add(group, "allgathers", stats_.allgathers);
  c.add(group, "bytes_sent", stats_.bytes_sent);
  c.add(group, "bytes_received", stats_.bytes_received);
  c.add(group, "time_in_mpi_ns", static_cast<u64>(to_ns(stats_.time_in_mpi)));
  c.add(group, "packets_handled", engine_.packets_handled());
  c.add(group, "op_timeouts", engine_.op_timeouts());
  c.add(group, "stale_packets", engine_.stale_packets());
  c.add(group, "malformed_packets", engine_.malformed_packets());
  c.add(group, "rndv_rts", engine_.rndv_rts());
  c.add(group, "rndv_cts", engine_.rndv_cts());
  c.add(group, "rndv_puts", engine_.rndv_puts());
  c.add(group, "rndv_fins", engine_.rndv_fins());
  c.add(group, "zero_copy_bytes", engine_.zero_copy_bytes());
}

// ---------------------------------------------------------------------------
// Communicator management
// ---------------------------------------------------------------------------

Comm Mpi::dup(const Comm& comm) {
  const u16 ctx = next_base_ctx_++;
  return Comm(ctx, comm.members());
}

Comm Mpi::split(const Comm& comm, i32 color, i32 key) {
  // Allgather (color, key) pairs over the parent, then every rank computes
  // the same grouping locally.
  struct Entry {
    i32 color, key;
  };
  const u32 size = comm.size();
  const u32 me = static_cast<u32>(rank(comm));
  std::vector<Entry> entries(size);
  const Entry mine{color, key};

  // Simple linear exchange on a reserved tag (split is not hot).
  for (u32 r = 0; r < size; ++r) {
    if (r == me) {
      entries[r] = mine;
      continue;
    }
    Request sreq = engine_.isend(comm.world_of(r), comm.coll_ctx(), kTagSplit,
                                 {reinterpret_cast<const u8*>(&mine), sizeof(Entry)});
    Request rreq = engine_.irecv(static_cast<i32>(comm.world_of(r)), comm.coll_ctx(),
                                 kTagSplit,
                                 {reinterpret_cast<u8*>(&entries[r]), sizeof(Entry)});
    engine_.wait(rreq);
    engine_.wait(sreq);
  }

  const u16 ctx = next_base_ctx_++;
  if (color < 0) return Comm(ctx, {});

  std::vector<u32> group;  // comm ranks in my color
  for (u32 r = 0; r < size; ++r)
    if (entries[r].color == color) group.push_back(r);
  std::stable_sort(group.begin(), group.end(), [&](u32 a, u32 b) {
    return entries[a].key < entries[b].key;
  });
  std::vector<u32> members;
  members.reserve(group.size());
  for (u32 r : group) members.push_back(comm.world_of(r));
  return Comm(ctx, std::move(members));
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

namespace {
template <typename T>
void apply_typed(ReduceOp op, T* acc, const T* in, u32 count) {
  for (u32 i = 0; i < count; ++i) {
    switch (op) {
      case ReduceOp::kSum: acc[i] = static_cast<T>(acc[i] + in[i]); break;
      case ReduceOp::kProd: acc[i] = static_cast<T>(acc[i] * in[i]); break;
      case ReduceOp::kMax: acc[i] = std::max(acc[i], in[i]); break;
      case ReduceOp::kMin: acc[i] = std::min(acc[i], in[i]); break;
      case ReduceOp::kLand: acc[i] = static_cast<T>(acc[i] && in[i]); break;
      case ReduceOp::kLor: acc[i] = static_cast<T>(acc[i] || in[i]); break;
      case ReduceOp::kBand:
        if constexpr (std::is_integral_v<T>)
          acc[i] = static_cast<T>(acc[i] & in[i]);
        else
          throw std::runtime_error("scrmpi: BAND on floating type");
        break;
      case ReduceOp::kBor:
        if constexpr (std::is_integral_v<T>)
          acc[i] = static_cast<T>(acc[i] | in[i]);
        else
          throw std::runtime_error("scrmpi: BOR on floating type");
        break;
    }
  }
}
}  // namespace

void apply_reduce(Datatype dt, ReduceOp op, void* acc, const void* in, u32 count) {
  switch (dt) {
    case Datatype::kByte:
    case Datatype::kChar:
      apply_typed(op, static_cast<u8*>(acc), static_cast<const u8*>(in), count);
      return;
    case Datatype::kInt32:
      apply_typed(op, static_cast<i32*>(acc), static_cast<const i32*>(in), count);
      return;
    case Datatype::kUint32:
      apply_typed(op, static_cast<u32*>(acc), static_cast<const u32*>(in), count);
      return;
    case Datatype::kInt64:
      apply_typed(op, static_cast<i64*>(acc), static_cast<const i64*>(in), count);
      return;
    case Datatype::kFloat:
      apply_typed(op, static_cast<float*>(acc), static_cast<const float*>(in), count);
      return;
    case Datatype::kDouble:
      apply_typed(op, static_cast<double*>(acc), static_cast<const double*>(in), count);
      return;
  }
  throw std::runtime_error("scrmpi: unknown datatype");
}

}  // namespace scrnet::scrmpi
