// BillBoard Protocol invariant checker.
//
// Validator::check() cross-examines an Endpoint's private state against the
// billboard words it mirrors (via MemPort::peek_u32, which costs no virtual
// time, so checking never perturbs simulated results):
//
//   * allocator ring consistency -- live_ is a duplicate-free FIFO of
//     exactly the in_use slots; data_empty_ holds iff no live slot carries
//     payload; payload extents walk contiguously from tail_ to head_ with
//     at most one wrap (see the invariant table in bbp/layout.h);
//   * flag-mirror agreement -- sent_flag_mirror_ / ack_out_mirror_ equal
//     the MESSAGE/ACK words in the local bank (this endpoint is their only
//     writer), and inbound ACK toggles not yet reconciled by GC only name
//     slots actually pending at that receiver;
//   * per-sender sequence monotonicity -- each inbound queue is strictly
//     increasing and strictly newer than the last delivered message.
//
// The class is always compiled so tests can call check() directly (and
// prove each check fires by corrupting an endpoint). Building with
// -DSCRNET_BBP_VALIDATE=ON additionally runs it after every post, garbage
// collection and delivery.
#pragma once

#include <stdexcept>
#include <string>

namespace scrnet::bbp {

class Endpoint;

/// Thrown by Validator::check when an invariant does not hold.
class ValidationError : public std::logic_error {
 public:
  explicit ValidationError(const std::string& what) : std::logic_error(what) {}
};

class Validator {
 public:
  /// Check every invariant; throws ValidationError naming the violated
  /// invariant and `where` (the protocol step just completed).
  static void check(Endpoint& ep, const char* where);
};

}  // namespace scrnet::bbp
