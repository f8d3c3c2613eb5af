// Ablation: polling vs interrupt-driven receive on SCRAMNet.
//
// Section 7 of the paper: "The second direction is to incorporate an
// interrupt mechanism ... Currently, our MPI implementation uses polling
// to check for incoming messages. Polling requires memory access across
// the I/O bus which increases the receive overhead."
//
// This bench quantifies that tradeoff on the device model: a polling
// receiver pays repeated PIO reads (and detects quickly); an interrupt
// receiver sleeps until the NIC raises an interrupt on a watched address,
// pays one interrupt dispatch, and reads once.
#include <iostream>

#include "bench_util.h"
#include "harness/cluster.h"
#include "scramnet/ring.h"
#include "scramnet/sim_port.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;

namespace {

constexpr u32 kFlagAddr = 100;
constexpr u32 kDataAddr = 101;

struct RecvResult {
  double latency_us;
  u64 pio_reads;
};

/// Host 0 waits `gap_writes` x 3 us (varying the phase relative to the
/// poll loop), then writes a data word and a flag; host 1 waits for the
/// flag with `receive` and reads the data once.
template <typename Receive>
RecvResult measure(u32 gap_writes, Receive receive) {
  sim::Simulation sim;
  scramnet::Ring ring(sim, {});
  SimTime sent = 0, got = 0;
  u64 reads = 0;
  harness::run_cluster(sim, 2, "host", &ring, nullptr, nullptr,
                       [&](sim::Process& p, u32 r) {
                         scramnet::SimHostPort port(ring, r, p);
                         if (r == 0) {
                           p.delay(us(3) * gap_writes);
                           sent = p.now();
                           port.write_u32(kDataAddr, 77);
                           port.write_u32(kFlagAddr, 1);
                           return;
                         }
                         receive(port, reads);
                         (void)port.read_u32(kDataAddr);
                         ++reads;
                         got = p.now();
                       });
  return {to_us(got - sent), reads};
}

RecvResult polled(u32 gap_writes) {
  return measure(gap_writes, [](scramnet::SimHostPort& port, u64& reads) {
    port.spin_until("abl.flag", 0, [&] {
      ++reads;
      return port.read_u32(kFlagAddr) != 0;
    });
  });
}

RecvResult interrupt_driven(u32 gap_writes) {
  return measure(gap_writes, [](scramnet::SimHostPort& port, u64&) {
    port.watch_range(kFlagAddr, kFlagAddr + 1);
    port.wait_write();  // blocked: zero bus traffic while idle, then irq dispatch
  });
}

}  // namespace

int main(int argc, char** argv) {
  sweep::parse_args(argc, argv);  // --jobs only, which a run without a sweep ignores
  header("Ablation: polling vs interrupt-driven receive",
         "the paper's Section 7 'future work' direction, quantified");

  Table t({"arrival phase", "poll latency (us)", "poll PIO reads",
           "irq latency (us)", "irq PIO reads"});
  double poll_sum = 0, irq_sum = 0;
  u64 poll_reads = 0;
  for (u32 g = 0; g < 6; ++g) {
    const RecvResult p = polled(g);
    const RecvResult i = interrupt_driven(g);
    poll_sum += p.latency_us;
    irq_sum += i.latency_us;
    poll_reads += p.pio_reads;
    t.add_row({std::to_string(g), Table::num(p.latency_us),
               std::to_string(p.pio_reads), Table::num(i.latency_us),
               std::to_string(i.pio_reads)});
  }
  t.print(std::cout);
  std::cout << "\nAverages: poll=" << Table::num(poll_sum / 6)
            << "us  irq=" << Table::num(irq_sum / 6) << "us\n";

  std::cout << "\nChecks:\n";
  check_shape("polling detects faster than a 7us interrupt dispatch",
              poll_sum < irq_sum);
  check_shape("but polling burns I/O-bus reads while idle (the paper's point)",
              poll_reads > 12);
  check_shape("interrupt receive needs exactly one data read per message",
              interrupt_driven(0).pio_reads == 1);
  return 0;
}
