// Ablation: PIO vs DMA for large BBP payloads (Section 2: "for larger
// data transfers, programmed I/O or DMA can be used").
//
// The wire is the same ring either way; what DMA buys is the *sender's
// CPU*: with PIO the host shovels every word across the PCI bus itself,
// with DMA it writes a descriptor and is free. One-way latency barely
// moves; back-to-back streaming throughput and sender availability do.
#include <iostream>

#include "bench_util.h"
#include "harness/benchops.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::harness;

namespace {

ScramnetOptions dma_opts() {
  ScramnetOptions o;
  o.bbp.dma_threshold_bytes = 512;
  return o;
}

/// Sender-side occupancy: virtual time from first send() call to the
/// sender being done issuing `msgs` back-to-back sends (not waiting for
/// delivery) -- the "CPU free for the application" metric.
double sender_issue_us(u32 bytes, u32 msgs, ScramnetOptions opts) {
  SimTime t0 = 0, t1 = 0;
  run_scramnet_bbp(
      2,
      [&](sim::Process& p, bbp::Endpoint& ep) {
        if (ep.rank() == 0) {
          std::vector<u8> msg(bytes);
          t0 = p.now();
          for (u32 i = 0; i < msgs; ++i) (void)ep.send(1, msg);
          t1 = p.now();  // issue complete; drain happens after
          ep.drain();
        } else {
          std::vector<u8> buf(bytes);
          for (u32 i = 0; i < msgs; ++i) (void)ep.recv(0, buf);
        }
      },
      opts);
  return to_us(t1 - t0);
}

}  // namespace

int main(int argc, char** argv) {
  sweep::parse_args(argc, argv);  // --jobs only, which a run without a sweep ignores
  header("Ablation: PIO vs DMA payload transfer in the BillBoard Protocol",
         "Section 2: 'programmed I/O or DMA can be used'");

  const std::vector<u32> sizes{512, 1024, 4096, 16384};
  Series pio_lat{"PIO latency", {}}, dma_lat{"DMA latency", {}};
  for (u32 s : sizes) {
    pio_lat.us.push_back(bbp_oneway_us(s));
    dma_lat.us.push_back(bbp_oneway_us(s, 4, 20, 4, dma_opts()));
  }
  print_series(sizes, {pio_lat, dma_lat});

  std::cout << "\nSender-side issue time for 8 back-to-back messages:\n";
  Table t({"bytes", "PIO issue (us)", "DMA issue (us)", "PIO tput (MB/s)",
           "DMA tput (MB/s)"});
  double pio_issue_16k = 0, dma_issue_16k = 0;
  for (u32 s : sizes) {
    const double a = sender_issue_us(s, 8, {});
    const double b = sender_issue_us(s, 8, dma_opts());
    if (s == 16384) {
      pio_issue_16k = a;
      dma_issue_16k = b;
    }
    t.add_row({std::to_string(s), Table::num(a), Table::num(b),
               Table::num(bbp_throughput_mbps(s, 1u << 20)),
               Table::num(bbp_throughput_mbps(s, 1u << 20, dma_opts()))});
  }
  t.print(std::cout);

  std::cout << "\nChecks:\n";
  check_shape("one-way latency is wire-bound, DMA changes it < 15%",
              std::abs(dma_lat.us.back() - pio_lat.us.back()) <
                  0.15 * pio_lat.us.back());
  check_shape("DMA frees most of the sender's CPU on bulk streams",
              dma_issue_16k < 0.6 * pio_issue_16k);
  return 0;
}
