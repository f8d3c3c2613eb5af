#include "scramnet/hierarchy.h"

#include <stdexcept>

namespace scrnet::scramnet {

namespace {

RingConfig backbone_config(const HierarchyConfig& cfg) {
  if (cfg.leaf_rings < 2) throw std::invalid_argument("hierarchy: need >=2 rings");
  RingConfig bb = cfg.leaf;
  bb.nodes = cfg.leaf_rings;
  bb.hop_latency = HierarchyConfig::backbone_hop;
  return bb;
}

}  // namespace

RingHierarchy::RingHierarchy(sim::Simulation& sim, HierarchyConfig cfg)
    : cfg_(cfg), backbone_(sim, backbone_config(cfg)) {
  for (u32 r = 0; r < cfg_.leaf_rings; ++r) leaves_.emplace_back(sim, cfg_.leaf);
  for (u32 r = 0; r < cfg_.leaf_rings; ++r) {
    leaves_[r].set_relay(0, [this, r](u32 addr, std::span<const u32> words, SimTime at) {
      backbone_.relay_write(r, addr, words, at + cfg_.bridge_latency);
    });
    backbone_.set_relay(r, [this, r](u32 addr, std::span<const u32> words, SimTime at) {
      leaves_[r].relay_write(0, addr, words, at + cfg_.bridge_latency);
    });
  }
}

SimTime RingHierarchy::full_propagation_bound() const {
  // Worst path: round the source leaf to its bridge, round the backbone,
  // and round another leaf from its bridge -- three serializations.
  return 2 * leaves_.front().full_propagation_bound() +
         backbone_.full_propagation_bound() + 2 * cfg_.bridge_latency;
}

void RingHierarchy::publish_counters(obs::Counters& c) const {
  backbone_.publish_counters(c, "ring");
  for (const Ring& leaf : leaves_) leaf.publish_counters(c, "ring");
}

}  // namespace scrnet::scramnet
