#include "netmodels/atm.h"

#include <cassert>

namespace scrnet::netmodels {

void AtmFabric::transmit(Frame f) {
  using C = AtmConfig;
  assert(f.src < hosts_ && f.dst < hosts_);
  assert(f.payload.size() <= C::mtu);
  const u32 cells = cells_for(f.payload.size());
  const SimTime wire = wire_time_bits(static_cast<u64>(cells) * 53 * 8, C::mbits_per_s);

  // Cell cut-through: cells stream through the switch with a fixed pipeline
  // fill; the output port must also be free for the PDU's cell train.
  const SimTime arrive = cross_switch(f.src, f.dst, wire,
                                      C::switch_cell_latency + C::propagation,
                                      C::propagation);
  deliver_at(arrive, std::move(f));
}

}  // namespace scrnet::netmodels
