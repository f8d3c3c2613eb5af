// Ablation/extension: the ring hierarchy Section 2 proposes for systems
// beyond one ring. BBP latency within a leaf ring vs across the backbone,
// and a system-wide multicast on a 12-node (3x4) hierarchy.
#include <iostream>

#include "bbp/endpoint.h"
#include "bench_util.h"
#include "common/bytes.h"
#include "harness/cluster.h"
#include "obs/sink.h"
#include "scramnet/hierarchy.h"
#include "scramnet/sim_port.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::scramnet;

namespace {

double oneway_us(u32 from, u32 to, u32 bytes, HierarchyConfig cfg) {
  sim::Simulation sim;
  RingHierarchy h(sim, cfg);
  SimTime t0 = 0, t1 = 0;
  // Host 0 is node `from` and sends; host 1 is node `to` and receives.
  harness::run_cluster(sim, 2, "host", nullptr, nullptr, nullptr,
                       [&](sim::Process& p, u32 r) {
                         const u32 me = r == 0 ? from : to;
                         SimHostPort port(h, me, p);
                         bbp::Endpoint ep(port, h.nodes(), me);
                         if (r == 0) {
                           std::vector<u8> msg(bytes);
                           t0 = p.now();
                           (void)ep.send(to, msg);
                           ep.drain();
                         } else {
                           std::vector<u8> buf(std::max<u32>(bytes, 4));
                           (void)ep.recv(from, buf);
                           t1 = p.now();
                         }
                       });
  if (obs::Counters::enabled()) h.publish_counters(sim.sink().counters());
  return to_us(t1 - t0);
}

double bcast_all_us(u32 bytes, HierarchyConfig cfg) {
  sim::Simulation sim;
  RingHierarchy h(sim, cfg);
  const u32 n = h.nodes();
  SimTime t0 = 0, last = 0;
  harness::run_cluster(sim, n, "node", nullptr, nullptr, nullptr,
                       [&](sim::Process& p, u32 r) {
                         SimHostPort port(h, r, p);
                         bbp::Endpoint ep(port, n, r);
                         if (r == 0) {
                           std::vector<u32> dests;
                           for (u32 d = 1; d < n; ++d) dests.push_back(d);
                           std::vector<u8> msg(bytes);
                           t0 = p.now();
                           (void)ep.mcast(dests, msg);
                           ep.drain();
                         } else {
                           std::vector<u8> buf(std::max<u32>(bytes, 4));
                           (void)ep.recv(0, buf);
                           if (p.now() > last) last = p.now();
                         }
                       });
  if (obs::Counters::enabled()) h.publish_counters(sim.sink().counters());
  return to_us(last - t0);
}

}  // namespace

int main(int argc, char** argv) {
  sweep::parse_args(argc, argv);  // --jobs only, which a run without a sweep ignores
  header("Extension: two-level ring hierarchy (3 rings x 4 nodes)",
         "Section 2: 'for systems larger than 256 nodes, a hierarchy of "
         "rings can be used'");

  HierarchyConfig cfg;
  cfg.leaf_rings = 3;
  cfg.leaf.nodes = 4;
  cfg.leaf.bank_words = 1u << 16;

  Table t({"path", "4 B (us)", "256 B (us)", "1024 B (us)"});
  struct Path {
    const char* name;
    u32 from, to;
  };
  const Path paths[] = {
      {"same ring (1 -> 2)", 1, 2},
      {"to own bridge (1 -> 0)", 1, 0},
      {"cross-ring (1 -> 6)", 1, 6},
      {"worst case (1 -> 11)", 1, 11},
  };
  double same4 = 0, cross4 = 0;
  for (const Path& pth : paths) {
    const double a = oneway_us(pth.from, pth.to, 4, cfg);
    const double b = oneway_us(pth.from, pth.to, 256, cfg);
    const double c = oneway_us(pth.from, pth.to, 1024, cfg);
    if (pth.from == 1 && pth.to == 2) same4 = a;
    if (pth.from == 1 && pth.to == 6) cross4 = a;
    t.add_row({pth.name, Table::num(a), Table::num(b), Table::num(c)});
  }
  t.print(std::cout);

  std::cout << "\n12-node hardware multicast (one bbp_Mcast, all nodes):\n";
  Table t2({"bytes", "bcast-to-all latency (us)"});
  for (u32 b : {4u, 256u, 1024u})
    t2.add_row({std::to_string(b), Table::num(bcast_all_us(b, cfg))});
  t2.print(std::cout);

  std::cout << "\nChecks:\n";
  check_shape("same-ring latency matches the flat 4-node ring (~7-8us)",
              same4 > 6.0 && same4 < 9.5);
  check_shape("cross-ring adds two bridge hops (~4-8us more)",
              cross4 > same4 + 3.0 && cross4 < same4 + 12.0);
  check_shape("12-node mcast still one send-side operation, < 3x unicast",
              bcast_all_us(4, cfg) < 3.0 * cross4);
  return 0;
}
