#include "workload/workload.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "scrmpi/mpi.h"
#include "sim/simulation.h"

namespace scrnet::workload {

namespace {

/// Per-rank accumulator; ranks are fibers of one simulation, so plain
/// writes into a per-rank slot are race-free. Merged in rank order.
struct RankStats {
  LogHistogram lat;
  u64 ok = 0, timeout = 0, error = 0, retried = 0, aborted = 0;

  /// Count one failed operation by its status.
  void failed(const scrmpi::MpiStatus& ms) {
    ms.err == StatusCode::kTimedOut ? ++timeout : ++error;
  }
};

// A sender abandons its remaining ops after this many consecutive
// post-retry failures; a receiver after this many consecutive idle
// timeouts. Keeps partitioned runs short instead of paying the full
// timeout once per remaining op.
constexpr u32 kSendAbortStreak = 2;
constexpr u32 kRecvAbortStreak = 3;

constexpr u32 kHybridThreshold = 512;  // kHybrid payload split
constexpr u32 kReplyBytes = 16;        // kRpc reply payload
constexpr double kHotFraction = 0.7;   // kHotspot bias toward rank 0

/// One-way latency is measured with a virtual-time stamp in the first 8
/// payload bytes -- sender and receiver share the simulation clock, so
/// the difference is exact (and deterministic).
void store_stamp(std::span<u8> buf, SimTime t) {
  const u64 v = static_cast<u64>(t);
  std::memcpy(buf.data(), &v, sizeof v);
}

u64 one_way_ns(std::span<const u8> buf, SimTime now) {
  u64 v = 0;
  std::memcpy(&v, buf.data(), sizeof v);
  const SimTime sent_at = static_cast<SimTime>(v);
  return static_cast<u64>(now > sent_at ? (now - sent_at) / kNanosecond : 0);
}

/// Destination sequence for every sender, as a pure function of the spec.
/// Every rank computes the same table, so receivers know exactly how many
/// messages to expect without any control traffic.
std::vector<std::vector<u32>> dest_table(const Spec& s) {
  std::vector<std::vector<u32>> t(s.nodes);
  if (s.nodes < 2) return t;
  switch (s.pattern) {
    case Pattern::kIncast:
      for (u32 r = 1; r < s.nodes; ++r) t[r].assign(s.ops, 0);
      break;
    case Pattern::kHotspot:
      for (u32 r = 1; r < s.nodes; ++r) {
        Rng rng(s.seed + 0x9E3779B97F4A7C15ull * (r + 1));
        for (u32 k = 0; k < s.ops; ++k) {
          u32 d = 0;
          if (s.nodes > 2 && !rng.chance(kHotFraction)) {
            d = static_cast<u32>(rng.below(s.nodes - 1));
            if (d >= r) ++d;  // uniform over ranks != r
          }
          t[r].push_back(d);
        }
      }
      break;
    case Pattern::kAllToAll:
      for (u32 r = 0; r < s.nodes; ++r)
        for (u32 k = 0; k < s.ops; ++k)
          t[r].push_back((r + 1 + k % (s.nodes - 1)) % s.nodes);
      break;
    case Pattern::kRpc:
      break;  // request/reply pairing, not a broadcast table
  }
  return t;
}

/// True if the rank should stop issuing work; handles pause windows by
/// sleeping until the window ends.
bool crashed_or_wait(sim::Process& p, const fault::FaultPlan* plan, u32 me) {
  if (plan == nullptr) return false;
  for (;;) {
    const SimTime now = p.now();
    if (plan->crashed(me, now)) return true;
    const SimTime until = plan->paused_until(me, now);
    if (until <= now) return false;
    p.delay(until - now);
  }
}

/// Sender/receiver loop shared by incast, hotspot and all-to-all: fire
/// this rank's scripted sends, draining arrivals opportunistically, then
/// block (bounded) for the remaining expected messages.
void run_oneway(sim::Process& p, scrmpi::Mpi& mpi, const Spec& s,
                const std::vector<u32>& mine, u32 expect,
                const fault::FaultPlan* plan, RankStats& st) {
  const scrmpi::Comm& world = mpi.world();
  const u32 me = mpi.engine().rank();
  const u32 msg = std::max<u32>(s.msg_bytes, 8);
  std::vector<u8> payload(msg, 0);
  fill_pattern(payload, me);
  std::vector<u8> rbuf(msg, 0);

  const u32 total = static_cast<u32>(mine.size());
  u32 sent = 0, got = 0;
  u32 send_streak = 0, idle = 0;
  // One receive, timed at arrival. False only when it timed out: a receive
  // that failed otherwise (say, its CTS could not be sent) still took its
  // message.
  const auto receive = [&](i32 src, i32 tag) {
    const scrmpi::MpiStatus ms =
        mpi.recv(rbuf.data(), msg, scrmpi::Datatype::kByte, src, tag, world);
    if (!ms.ok()) {
      st.failed(ms);
      return ms.err != StatusCode::kTimedOut;
    }
    st.lat.add(one_way_ns(rbuf, p.now()));
    ++st.ok;
    idle = 0;
    return true;
  };
  while (sent < total || got < expect) {
    if (crashed_or_wait(p, plan, me)) {
      st.aborted += (total - sent) + (expect - got);
      return;
    }
    if (sent < total) {
      store_stamp(payload, p.now());
      scrmpi::MpiStatus ms =
          mpi.send(payload.data(), msg, scrmpi::Datatype::kByte,
                   static_cast<i32>(mine[sent]), /*tag=*/0, world);
      for (u32 tries = 0; !ms.ok() && tries < s.retries; ++tries) {
        ++st.retried;
        store_stamp(payload, p.now());
        ms = mpi.send(payload.data(), msg, scrmpi::Datatype::kByte,
                      static_cast<i32>(mine[sent]), 0, world);
      }
      ++sent;
      if (ms.ok()) {
        send_streak = 0;
      } else {
        st.failed(ms);
        if (++send_streak >= kSendAbortStreak) {
          st.aborted += total - sent;
          sent = total;
        }
      }
    }
    // Drain whatever already arrived without blocking, then -- once all
    // sends are out -- block (bounded by op_timeout) for the rest.
    while (got < expect) {
      const auto pr = mpi.iprobe(scrmpi::kAnySource, scrmpi::kAnyTag, world);
      if (!pr) break;
      receive(pr->source, pr->tag);
      ++got;
    }
    if (sent == total && got < expect) {
      if (receive(scrmpi::kAnySource, scrmpi::kAnyTag)) {
        ++got;
      } else if (++idle >= kRecvAbortStreak) {
        st.aborted += expect - got;
        return;
      }
    }
  }
}

/// Paired request/reply: clients [0, n/2) call servers [n/2, n). The
/// round trip is timed at the client; a timeout on either leg counts once.
void run_rpc(sim::Process& p, scrmpi::Mpi& mpi, const Spec& s,
             const fault::FaultPlan* plan, RankStats& st) {
  const scrmpi::Comm& world = mpi.world();
  const u32 me = mpi.engine().rank();
  const u32 half = s.nodes / 2;
  const u32 req_n = std::max<u32>(s.msg_bytes, 8);
  if (me >= 2 * half) return;  // odd node count: last rank sits out

  if (me < half) {
    const i32 server = static_cast<i32>(me + half);
    std::vector<u8> req(req_n, 0), reply(kReplyBytes, 0);
    fill_pattern(req, me);
    u32 streak = 0;
    for (u32 k = 0; k < s.ops; ++k) {
      if (crashed_or_wait(p, plan, me)) {
        st.aborted += s.ops - k;
        return;
      }
      const SimTime t0 = p.now();
      scrmpi::MpiStatus ms = mpi.send(req.data(), req_n, scrmpi::Datatype::kByte,
                                      server, static_cast<i32>(k), world);
      for (u32 tries = 0; !ms.ok() && tries < s.retries; ++tries) {
        ++st.retried;
        ms = mpi.send(req.data(), req_n, scrmpi::Datatype::kByte, server,
                      static_cast<i32>(k), world);
      }
      if (ms.ok()) {
        ms = mpi.recv(reply.data(), kReplyBytes, scrmpi::Datatype::kByte, server,
                      static_cast<i32>(k), world);
      }
      if (ms.ok()) {
        st.lat.add(static_cast<u64>((p.now() - t0) / kNanosecond));
        ++st.ok;
        streak = 0;
      } else {
        st.failed(ms);
        if (++streak >= kSendAbortStreak) {
          st.aborted += s.ops - k - 1;
          return;
        }
      }
    }
  } else {
    const i32 client = static_cast<i32>(me - half);
    std::vector<u8> req(req_n, 0), reply(kReplyBytes, 0);
    fill_pattern(reply, me);
    u32 streak = 0;
    for (u32 k = 0; k < s.ops; ++k) {
      if (crashed_or_wait(p, plan, me)) {
        st.aborted += s.ops - k;
        return;
      }
      scrmpi::MpiStatus ms = mpi.recv(req.data(), req_n, scrmpi::Datatype::kByte,
                                      client, static_cast<i32>(k), world);
      if (!ms.ok()) {
        st.failed(ms);
        if (++streak >= kRecvAbortStreak) {
          st.aborted += s.ops - k - 1;
          return;
        }
        continue;
      }
      streak = 0;
      ms = mpi.send(reply.data(), kReplyBytes, scrmpi::Datatype::kByte, client,
                    static_cast<i32>(k), world);
      if (!ms.ok()) st.failed(ms);
    }
  }
}

}  // namespace

Report run(Spec spec) {
  const auto dests = dest_table(spec);
  std::vector<u32> expect(spec.nodes, 0);
  for (const auto& seq : dests)
    for (u32 d : seq) ++expect[d];

  fault::FaultPlan* plan = spec.faults.empty() ? nullptr : &spec.faults;
  std::vector<RankStats> per(spec.nodes);
  const auto body = [&](sim::Process& p, scrmpi::Mpi& mpi) {
    const u32 me = mpi.engine().rank();
    if (spec.pattern == Pattern::kRpc)
      run_rpc(p, mpi, spec, plan, per[me]);
    else
      run_oneway(p, mpi, spec, dests[me], expect[me], plan, per[me]);
  };

  // One SCRAMNet configuration for both devices that sit on the ring.
  harness::ScramnetOptions so;
  so.ring.redundant_ring = spec.redundant_ring;
  so.bbp.slots = spec.bbp_slots;
  so.bbp.poll_timeout = spec.op_timeout;
  so.mpi.op_timeout = spec.op_timeout;
  so.faults = plan;
  SimTime end = 0;
  switch (spec.device) {
    case Device::kBbp:
      end = harness::run_scramnet_mpi(spec.nodes, body, so);
      break;
    case Device::kSock: {
      harness::FabricOptions o;
      o.mpi.op_timeout = spec.op_timeout;
      o.faults = plan;
      end = harness::run_tcp_mpi(spec.nodes, spec.fabric, body, o);
      break;
    }
    case Device::kHybrid:
      end = harness::run_hybrid_mpi(spec.nodes, spec.fabric,
                                    kHybridThreshold, body, so);
      break;
  }

  Report rep;
  rep.node_ops.assign(spec.nodes, 0);
  for (u32 r = 0; r < spec.nodes; ++r) {
    const RankStats& st = per[r];
    rep.latency.merge(st.lat);
    rep.ops_ok += st.ok;
    rep.ops_timeout += st.timeout;
    rep.ops_error += st.error;
    rep.retried += st.retried;
    rep.aborted += st.aborted;
    rep.node_ops[r] = st.ok;
  }
  if (plan != nullptr) {
    for (u32 k = 0; k < static_cast<u32>(fault::FaultKind::kCount); ++k)
      rep.fault_fired[k] = plan->fired(static_cast<fault::FaultKind>(k));
  }
  rep.makespan = end;
  return rep;
}

std::string Report::render(const Spec& spec) const {
  std::string s;
  s += "[";
  s += spec.name;
  s += "] pattern=";
  s += to_string(spec.pattern);
  s += " device=";
  s += to_string(spec.device);
  if (spec.device != Device::kBbp) {
    s += " fabric=";
    s += harness::to_string(spec.fabric);
  }
  s += " nodes=" + std::to_string(spec.nodes);
  s += " ops=" + std::to_string(spec.ops);
  s += " msg=" + std::to_string(spec.msg_bytes);
  if (spec.pattern == Pattern::kRpc)
    s += " reply=" + std::to_string(kReplyBytes);
  if (spec.pattern == Pattern::kHotspot)
    s += " hot_permille=" +
         std::to_string(static_cast<u64>(kHotFraction * 1000.0 + 0.5));
  s += " seed=" + std::to_string(spec.seed);
  s += "\n  ops: ok=" + std::to_string(ops_ok);
  s += " timeout=" + std::to_string(ops_timeout);
  s += " error=" + std::to_string(ops_error);
  s += " retried=" + std::to_string(retried);
  s += " aborted=" + std::to_string(aborted);
  s += "\n  latency_ns: n=" + std::to_string(latency.count());
  s += " p50=" + std::to_string(latency.percentile_permille(500));
  s += " p99=" + std::to_string(latency.percentile_permille(990));
  s += " p999=" + std::to_string(latency.percentile_permille(999));
  s += " max=" + std::to_string(latency.max());
  s += "\n  node_ops:";
  for (u64 n : node_ops) {
    s += ' ';
    s += std::to_string(n);
  }
  s += "\n  makespan_us=" + std::to_string(makespan / kMicrosecond);
  s += "\n  faults:";
  bool any = false;
  for (u32 k = 0; k < static_cast<u32>(fault::FaultKind::kCount); ++k) {
    if (fault_fired[k] == 0) continue;
    any = true;
    s += " ";
    s += fault::kind_name(static_cast<fault::FaultKind>(k));
    s += '=';
    s += std::to_string(fault_fired[k]);
  }
  if (!any) s += " none";
  s += "\n";
  return s;
}

}  // namespace scrnet::workload
