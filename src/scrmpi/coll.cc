#include "scrmpi/coll.h"

#include <algorithm>
#include <bit>
#include <vector>

namespace scrnet::scrmpi::coll {

// ---------------------------------------------------------------------------
// Context: point-to-point through the binding-cost path
// ---------------------------------------------------------------------------

void Ctx::send(u32 dst, i32 tag, std::span<const u8> data) {
  eng.device().cpu(LayerCosts::binding);
  eng.wait(eng.isend(comm.world_of(dst), comm.coll_ctx(), tag, data));
}

void Ctx::recv(u32 src, i32 tag, std::span<u8> buf) {
  eng.device().cpu(LayerCosts::binding);
  eng.wait(eng.irecv(static_cast<i32>(comm.world_of(src)), comm.coll_ctx(),
                     tag, buf));
}

void Ctx::sendrecv(u32 dst, std::span<const u8> sdata, u32 src,
                   std::span<u8> rbuf, i32 tag) {
  eng.device().cpu(LayerCosts::binding);
  Request rr =
      eng.irecv(static_cast<i32>(comm.world_of(src)), comm.coll_ctx(), tag, rbuf);
  Request sr = eng.isend(comm.world_of(dst), comm.coll_ctx(), tag, sdata);
  eng.wait(rr);
  eng.wait(sr);
}

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

void bcast_binomial(Ctx& c, u8* buf, u32 bytes, u32 root) {
  const u32 np = c.np;
  const u32 rel = (c.me - root + np) % np;

  // Receive from the parent (clear the lowest set bit of rel), then
  // forward to the subtree leads.
  u32 mask = 1;
  while (mask < np) {
    if (rel & mask) {
      c.recv((rel - mask + root) % np, tag::kBcast, {buf, bytes});
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < np)
      c.send((rel + mask + root) % np, tag::kBcast, {buf, bytes});
    mask >>= 1;
  }
}

void bcast_scatter_allgather(Ctx& c, u8* buf, u32 bytes, u32 root) {
  const u32 np = c.np;
  if (np == 1 || bytes == 0) return;
  const u32 rel = (c.me - root + np) % np;
  // Relative rank i owns segment [i*seg, min((i+1)*seg, bytes)); the tail
  // segments can be short or empty when bytes < np*seg.
  const u32 seg = (bytes + np - 1) / np;
  const auto off = [&](u32 i) {
    return static_cast<u32>(
        std::min<u64>(bytes, static_cast<u64>(i) * seg));
  };
  const auto real = [&](u32 r) { return (r + root) % np; };

  // Phase 1: binomial scatter. A rank receives its whole subtree's span
  // from its parent, then halves it toward the leaves. Empty spans (tail
  // ranks) are skipped on both sides -- each side derives the same sizes.
  u32 mask = 1;
  while (mask < np) {
    if (rel & mask) {
      const u32 lo = off(rel), hi = off(std::min(np, rel + mask));
      if (hi > lo)
        c.recv(real(rel - mask), tag::kBcast, {buf + lo, hi - lo});
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < np) {
      const u32 child = rel + mask;
      const u32 lo = off(child), hi = off(std::min(np, child + mask));
      if (hi > lo) c.send(real(child), tag::kBcast, {buf + lo, hi - lo});
    }
    mask >>= 1;
  }

  // Phase 2: ring allgather of the np segments over relative ranks. Step s
  // passes segment (rel - s) right while segment (rel - s - 1) arrives
  // from the left; zero-size segments skip the transfer symmetrically.
  const u32 right = real(rel + 1), left = real(rel + np - 1);
  for (u32 s = 0; s + 1 < np; ++s) {
    const u32 sb = (rel + np - s) % np;
    const u32 rb = (rel + np - s - 1) % np;
    const u32 s0 = off(sb), s1 = off(sb + 1);
    const u32 r0 = off(rb), r1 = off(rb + 1);
    if (s1 > s0 && r1 > r0)
      c.sendrecv(right, {buf + s0, s1 - s0}, left, {buf + r0, r1 - r0},
                 tag::kBcast);
    else if (s1 > s0)
      c.send(right, tag::kBcast, {buf + s0, s1 - s0});
    else if (r1 > r0)
      c.recv(left, tag::kBcast, {buf + r0, r1 - r0});
  }
}

void bcast_ring(Ctx& c, u8* buf, u32 bytes, u32 root) {
  const u32 np = c.np;
  if (np == 1) return;
  const u32 rel = (c.me - root + np) % np;
  if (rel != 0) c.recv((rel - 1 + root) % np, tag::kBcast, {buf, bytes});
  if (rel != np - 1) c.send((rel + 1 + root) % np, tag::kBcast, {buf, bytes});
}

void bcast_chain(Ctx& c, u8* buf, u32 bytes, u32 root) {
  const u32 np = c.np;
  if (np == 1) return;
  const u32 rel = (c.me - root + np) % np;
  const u32 prev = (rel - 1 + root) % np, next = (rel + 1 + root) % np;
  // Forward each segment as soon as it lands; the upstream hop is already
  // pushing the next one, so segments overlap along the chain.
  for (u32 lo = 0; lo < bytes || (bytes == 0 && lo == 0);
       lo += kChainSegmentBytes) {
    const u32 n = std::min(kChainSegmentBytes, bytes - lo);
    if (rel != 0) c.recv(prev, tag::kBcast, {buf + lo, n});
    if (rel != np - 1) c.send(next, tag::kBcast, {buf + lo, n});
    if (bytes == 0) break;
  }
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

void barrier_combine_release(Ctx& c) {
  const u32 np = c.np, me = c.me;
  u8 token = 0;

  // Combine (tree gather) toward rank 0.
  u32 mask = 1;
  while (mask < np) {
    if (me & mask) {
      c.send(me - mask, tag::kBarrierUp, {&token, 1});
      break;
    }
    if (me + mask < np) c.recv(me + mask, tag::kBarrierUp, {&token, 1});
    mask <<= 1;
  }

  // Release: binomial broadcast of a token from rank 0.
  mask = 1;
  while (mask < np) {
    if (me & mask) {
      c.recv(me - mask, tag::kBarrierDown, {&token, 1});
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (me + mask < np) c.send(me + mask, tag::kBarrierDown, {&token, 1});
    mask >>= 1;
  }
}

void barrier_dissemination(Ctx& c) {
  const u32 np = c.np, me = c.me;
  u8 out = 0, in = 0;
  // Round r: notify (me + 2^r) mod np, wait for (me - 2^r) mod np. After
  // ceil(log2(np)) rounds every rank transitively heard from every other.
  // Distances are distinct per round, so one tag suffices.
  for (u32 d = 1; d < np; d <<= 1)
    c.sendrecv((me + d) % np, {&out, 1}, (me + np - d) % np, {&in, 1},
               tag::kDissem);
}

// ---------------------------------------------------------------------------
// Allreduce
// ---------------------------------------------------------------------------

namespace {

// MPICH's fold to a power of two, shared by the two allreduces that pair
// ranks by XOR: of the np = pof2 + rem ranks, each odd rank below 2*rem
// hands its vector to the even rank below it and sits out; the pof2
// survivors run the algorithm and the sitters get the result back.

/// Fold this rank in: returns its survivor number (the even rank, having
/// reduced its neighbour's vector into `vec` through `tmp`, is me/2; a
/// rank from 2*rem up is me - rem), or -1 when it sits out.
i32 fold_in(Ctx& c, u32 rem, std::span<u8> vec, std::span<u8> tmp, u32 count,
            Datatype dt, ReduceOp op) {
  const u32 me = c.me;
  if (me >= 2 * rem) return static_cast<i32>(me - rem);
  if (me % 2 == 1) {
    c.send(me - 1, tag::kAllreduce, vec);
    return -1;
  }
  c.recv(me + 1, tag::kAllreduce, tmp);
  apply_reduce(dt, op, vec.data(), tmp.data(), count);
  return static_cast<i32>(me / 2);
}

/// Hand the result back: each even rank below 2*rem sends `vec` to the odd
/// rank above it, which sat out.
void fold_out(Ctx& c, u32 rem, std::span<u8> vec) {
  const u32 me = c.me;
  if (me >= 2 * rem) return;
  if (me % 2 == 1)
    c.recv(me - 1, tag::kAllreduce, vec);
  else
    c.send(me + 1, tag::kAllreduce, vec);
}

/// The rank of survivor `s` (the inverse of fold_in's numbering).
u32 survivor_rank(u32 s, u32 rem) { return s < rem ? s * 2 : s + rem; }

}  // namespace

void allreduce_recursive_doubling(Ctx& c, void* recvbuf, u32 count,
                                  Datatype dt, ReduceOp op) {
  // MPICH's recursive doubling: fold the ranks beyond the largest power of
  // two into their even neighbors, double among the survivors, then push
  // the result back out. Requires commutative ops (all of ReduceOp is).
  const u32 np = c.np;
  if (np == 1) return;
  const std::span<u8> vec{static_cast<u8*>(recvbuf), coll_bytes(count, dt)};
  const u32 pof2 = std::bit_floor(np);
  const u32 rem = np - pof2;
  std::vector<u8> tmp(vec.size());

  const i32 newrank = fold_in(c, rem, vec, tmp, count, dt, op);
  if (newrank >= 0) {
    for (u32 mask = 1; mask < pof2; mask <<= 1) {
      const u32 peer = survivor_rank(static_cast<u32>(newrank) ^ mask, rem);
      c.sendrecv(peer, vec, peer, tmp, tag::kAllreduce);
      apply_reduce(dt, op, vec.data(), tmp.data(), count);
    }
  }
  fold_out(c, rem, vec);
}

void allreduce_rabenseifner(Ctx& c, void* recvbuf, u32 count, Datatype dt,
                            ReduceOp op) {
  const u32 np = c.np;
  if (np == 1) return;
  const u32 esz = datatype_size(dt);
  u8* buf = static_cast<u8*>(recvbuf);
  const std::span<u8> vec{buf, static_cast<usize>(count) * esz};
  const u32 pof2 = std::bit_floor(np);
  const u32 rem = np - pof2;
  std::vector<u8> tmp(vec.size());

  const i32 newrank = fold_in(c, rem, vec, tmp, count, dt, op);
  if (newrank >= 0) {
    const u32 nr = static_cast<u32>(newrank);
    // The vector splits into pof2 blocks indexed by survivor rank; block
    // boundaries in elements (front blocks absorb the remainder).
    const auto eoff = [&](u32 i) {
      return i * (count / pof2) + std::min(i, count % pof2);
    };
    const auto span_of = [&](u8* base, u32 b0, u32 b1) {
      return std::span<u8>{base + static_cast<usize>(eoff(b0)) * esz,
                           static_cast<usize>(eoff(b1) - eoff(b0)) * esz};
    };

    // Recursive-halving reduce-scatter: my block window [lo, hi) halves
    // every step toward the half containing block `nr`; I send the other
    // half and fold the peer's contribution into mine.
    u32 lo = 0, hi = pof2;
    for (u32 mask = pof2 >> 1; mask > 0; mask >>= 1) {
      const u32 peer = survivor_rank(nr ^ mask, rem);
      const u32 mid = lo + (hi - lo) / 2;
      const bool keep_low = (nr & mask) == 0;
      const u32 klo = keep_low ? lo : mid, khi = keep_low ? mid : hi;
      const u32 glo = keep_low ? mid : lo, ghi = keep_low ? hi : mid;
      c.sendrecv(peer, span_of(buf, glo, ghi), peer,
                 span_of(tmp.data(), klo, khi), tag::kAllreduce);
      apply_reduce(dt, op, buf + static_cast<usize>(eoff(klo)) * esz,
                   tmp.data() + static_cast<usize>(eoff(klo)) * esz,
                   eoff(khi) - eoff(klo));
      lo = klo;
      hi = khi;
    }

    // Recursive-doubling allgather: mirror the halving back out, swapping
    // reduced windows with the sibling at each scale.
    for (u32 mask = 1; mask < pof2; mask <<= 1) {
      const u32 peer = survivor_rank(nr ^ mask, rem);
      const u32 size = hi - lo;
      const bool low_half = (nr & mask) == 0;
      const u32 slo = low_half ? hi : lo - size;
      const u32 shi = low_half ? hi + size : lo;
      c.sendrecv(peer, span_of(buf, lo, hi), peer, span_of(buf, slo, shi),
                 tag::kAllreduce);
      lo = std::min(lo, slo);
      hi = std::max(hi, shi);
    }
  }
  fold_out(c, rem, vec);
}

void allreduce_ring(Ctx& c, void* recvbuf, u32 count, Datatype dt,
                    ReduceOp op) {
  const u32 np = c.np, me = c.me;
  if (np == 1) return;
  const u32 esz = datatype_size(dt);
  u8* buf = static_cast<u8*>(recvbuf);
  // Block b holds cnt(b) elements; front blocks absorb the remainder.
  const auto cnt = [&](u32 b) { return count / np + (b < count % np ? 1u : 0u); };
  const auto eoff = [&](u32 b) {
    return b * (count / np) + std::min(b, count % np);
  };
  const auto blk = [&](u32 b) {
    return std::span<u8>{buf + static_cast<usize>(eoff(b)) * esz,
                         static_cast<usize>(cnt(b)) * esz};
  };
  const u32 right = (me + 1) % np, left = (me + np - 1) % np;
  std::vector<u8> tmp(static_cast<usize>(cnt(0)) * esz);  // largest block

  // Reduce-scatter: step s passes block (me - s) right while block
  // (me - s - 1) arrives from the left and folds in. After n-1 steps this
  // rank holds the fully reduced block (me + 1) mod n.
  for (u32 s = 0; s + 1 < np; ++s) {
    const u32 sb = (me + np - s) % np;
    const u32 rb = (me + np - s - 1) % np;
    c.sendrecv(right, blk(sb), left,
               {tmp.data(), static_cast<usize>(cnt(rb)) * esz},
               tag::kAllreduce);
    apply_reduce(dt, op, buf + static_cast<usize>(eoff(rb)) * esz, tmp.data(),
                 cnt(rb));
  }

  // Allgather: circulate the reduced blocks the rest of the way around.
  for (u32 s = 0; s + 1 < np; ++s) {
    const u32 sb = (me + 1 + np - s) % np;
    const u32 rb = (me + np - s) % np;
    c.sendrecv(right, blk(sb), left, blk(rb), tag::kAllreduce);
  }
}

// ---------------------------------------------------------------------------
// Allgather
// ---------------------------------------------------------------------------

void allgather_ring(Ctx& c, u8* recvbuf, u32 block_bytes) {
  const u32 np = c.np, me = c.me;
  if (np == 1) return;
  const u32 right = (me + 1) % np, left = (me + np - 1) % np;
  const auto blk = [&](u32 b) {
    return std::span<u8>{recvbuf + static_cast<usize>(b) * block_bytes,
                         block_bytes};
  };
  for (u32 s = 0; s + 1 < np; ++s) {
    const u32 sb = (me + np - s) % np;
    const u32 rb = (me + np - s - 1) % np;
    c.sendrecv(right, blk(sb), left, blk(rb), tag::kAllgather);
  }
}

// ---------------------------------------------------------------------------
// Decision-table name lookups
// ---------------------------------------------------------------------------

CollAlgo coll_algo_from_name(std::string_view name, CollAlgo fallback) {
  for (CollAlgo a :
       {CollAlgo::kPointToPoint, CollAlgo::kNativeMcast, CollAlgo::kBinomial,
        CollAlgo::kScatterAllgather, CollAlgo::kRing, CollAlgo::kChain,
        CollAlgo::kDissemination})
    if (coll_algo_name(a) == name) return a;
  return fallback;
}

AllreduceAlgo allreduce_algo_from_name(std::string_view name,
                                       AllreduceAlgo fallback) {
  for (AllreduceAlgo a :
       {AllreduceAlgo::kReduceBcast, AllreduceAlgo::kRecursiveDoubling,
        AllreduceAlgo::kRabenseifner, AllreduceAlgo::kRing})
    if (allreduce_algo_name(a) == name) return a;
  return fallback;
}

AllgatherAlgo allgather_algo_from_name(std::string_view name,
                                       AllgatherAlgo fallback) {
  for (AllgatherAlgo a : {AllgatherAlgo::kGatherBcast, AllgatherAlgo::kRing})
    if (allgather_algo_name(a) == name) return a;
  return fallback;
}

}  // namespace scrnet::scrmpi::coll
