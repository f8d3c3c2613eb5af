// Ablation: cost of the MPICH Channel Interface layer.
//
// Section 7 of the paper: "The first direction is to remove the Channel
// Interface layer by creating an Abstract Device Interface layer directly
// on top of the BillBoard API." Two takes on that payoff:
//   * "direct-ADI (est.)": the original what-if -- zero the channel
//     packetization costs while keeping the copy-based protocols;
//   * "zero-copy rndv": the implemented answer (docs/adi.md) -- a
//     rendezvous window in the billboard plus a low eager cap, so large
//     payloads are put straight into the receiver's granted placement and
//     never ride a channel packet at all. Small messages (<= the 256 B
//     cap) stay eager and match the full stack bit-for-bit; above it the
//     RTS/CTS handshake buys freedom from the per-byte pack/unpack passes.
//     The handshake pays for itself by 512 B already, and at 16 KB the
//     zero-copy line rides ~60 us over raw BBP where the full stack is
//     ~1300 us over -- the channel-interface copy was the whole gap.
#include <iostream>

#include "bench_util.h"
#include "harness/benchops.h"
#include "sweep/runner.h"

using namespace scrnet;
using namespace scrnet::bench;
using namespace scrnet::harness;

int main(int argc, char** argv) {
  sweep::parse_args(argc, argv);  // --jobs only, which a run without a sweep ignores
  header("Ablation: removing the Channel Interface layer",
         "the paper's Section 7 'future work' direction, quantified");

  ScramnetOptions with_ci;  // defaults: full MPICH-style stack

  ScramnetOptions no_ci;
  no_ci.mpi.channel_pack = 0;       // no packetization step
  no_ci.mpi.per_byte_scale = 0.15;  // direct-to-user delivery keeps a touch
  no_ci.mpi.adi_dispatch = us(2);   // ADI talks straight to the BBP

  ScramnetOptions zero_copy;  // the real implementation, not an estimate
  zero_copy.bbp.rndv_window_bytes = 256 * 1024;
  zero_copy.mpi.eager_cap = 256;  // payloads above this go rendezvous

  const std::vector<u32> sizes{0, 4, 64, 256, 512, 1000, 4096, 16384};
  Series a{"MPI w/ channel iface", {}}, b{"MPI direct-ADI (est.)", {}},
      zc{"MPI zero-copy rndv", {}}, api{"raw BBP API", {}};
  for (u32 s : sizes) {
    a.us.push_back(mpi_scramnet_oneway_us(s, 4, with_ci));
    b.us.push_back(mpi_scramnet_oneway_us(s, 4, no_ci));
    zc.us.push_back(mpi_scramnet_oneway_us(s, 4, zero_copy));
    api.us.push_back(bbp_oneway_us(s));
  }
  print_series(sizes, {a, b, zc, api});

  std::cout << "\nChecks:\n";
  check_shape("removing the channel layer saves fixed overhead at 0B",
              b.us[0] < a.us[0] - 4.0);
  check_shape("and most of the per-byte MPI penalty at 1000B",
              (b.us[5] - api.us[5]) < 0.5 * (a.us[5] - api.us[5]));
  check_shape("zero-copy matches the full stack below the eager cap",
              zc.us[0] == a.us[0] && zc.us[3] == a.us[3]);
  check_shape("zero-copy beats the full stack at 4KB despite the handshake",
              zc.us[6] < a.us[6]);
  check_shape("and approaches the raw-BBP slope at 16KB",
              (zc.us[7] - api.us[7]) < 0.25 * (a.us[7] - api.us[7]));
  return 0;
}
