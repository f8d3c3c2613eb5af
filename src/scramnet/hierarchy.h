// Two-level SCRAMNet ring hierarchy (Section 2 of the paper: "For systems
// larger than 256 nodes, a hierarchy of rings can be used").
//
// K leaf Rings of M nodes each are joined by a backbone Ring of K nodes.
// Local node 0 of leaf r is bridge r: a two-NIC box with one bank on leaf r
// and one as backbone node r. Each NIC is a tap that forwards every packet
// it sees onto the other ring after `bridge_latency`, so a write anywhere is
// reflected into every bank in the system:
//
//   source leaf ring  ->  bridge  ->  backbone ring  ->  other bridges
//                     ->  their leaf rings
//
// Every ring arbitrates its own medium through Ring's single injection
// path. Hosts attach with SimHostPort(hierarchy, n, proc), which sits on
// leaf(ring_of(n)) and whose fence() waits until a write has crossed the
// bridges and settled in every ring, so BBP, scrmpi and scrshm (the bakery
// lock fences its doorway) run across the hierarchy unchanged.
#pragma once

#include <deque>

#include "scramnet/config.h"
#include "scramnet/ring.h"
#include "sim/simulation.h"

namespace scrnet::scramnet {

struct HierarchyConfig {
  u32 leaf_rings = 3;
  RingConfig leaf;                  // one leaf ring; nodes include the bridge
  SimTime bridge_latency = us(2);   // store-and-forward + re-framing

  static constexpr SimTime backbone_hop = ns(600);  // longer cable runs between cabinets

  u32 total_nodes() const { return leaf_rings * leaf.nodes; }
};

class RingHierarchy {
 public:
  RingHierarchy(sim::Simulation& sim, HierarchyConfig cfg);
  // The bridge taps hold references into this object.
  RingHierarchy(const RingHierarchy&) = delete;
  RingHierarchy& operator=(const RingHierarchy&) = delete;

  const HierarchyConfig& config() const { return cfg_; }
  u32 nodes() const { return cfg_.total_nodes(); }

  /// Which leaf ring a global node lives on / its local index there.
  u32 ring_of(u32 node) const { return node / cfg_.leaf.nodes; }
  u32 local_of(u32 node) const { return node % cfg_.leaf.nodes; }
  bool is_bridge(u32 node) const { return local_of(node) == 0; }

  Ring& leaf(u32 r) { return leaves_[r]; }
  Ring& backbone() { return backbone_; }

  void host_write(u32 node, u32 word_addr, u32 value) {
    leaf(ring_of(node)).host_write(local_of(node), word_addr, value);
  }
  u32 host_read(u32 node, u32 word_addr) const {
    return leaves_[ring_of(node)].host_read(local_of(node), word_addr);
  }

  /// Worst-case write propagation (farthest leaf-to-leaf path).
  SimTime full_propagation_bound() const;

  /// Publish the backbone's and every leaf's counters under "ring", where
  /// they sum, as a flat ring's do.
  void publish_counters(obs::Counters& c) const;

 private:
  HierarchyConfig cfg_;
  Ring backbone_;
  std::deque<Ring> leaves_;  // stable addresses for the taps
};

}  // namespace scrnet::scramnet
