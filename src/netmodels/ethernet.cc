#include "netmodels/ethernet.h"

#include <algorithm>
#include <cassert>

namespace scrnet::netmodels {

SimTime EthernetFabric::frame_wire_time(usize payload_bytes) const {
  // On-wire length: payload padded to the 64-byte minimum frame, plus
  // preamble/header/FCS/IFG overhead.
  using C = EthernetConfig;
  const u64 frame =
      std::max<u64>(payload_bytes + 18, C::min_frame) + (C::frame_overhead - 18);
  return wire_time_bits(frame * 8, C::mbits_per_s);
}

void EthernetFabric::transmit(Frame f) {
  using C = EthernetConfig;
  assert(f.src < hosts_ && f.dst < hosts_);
  assert(f.payload.size() <= C::mtu);
  const SimTime wire = frame_wire_time(f.payload.size());
  // Cut-through: the switch starts forwarding once the header is in
  // (so the two link serializations overlap); store-and-forward waits for
  // the full frame before contending for the output port.
  const SimTime head =
      (cfg_.store_and_forward ? wire : 0) + C::propagation + C::switch_latency;
  const SimTime arrive = cross_switch(f.src, f.dst, wire, head, C::propagation);
  deliver_at(arrive, std::move(f));
}

}  // namespace scrnet::netmodels
