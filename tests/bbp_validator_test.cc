// Tests for bbp::Validator: a clean session satisfies every protocol
// invariant, and each deliberately injected corruption (through
// EndpointCorrupter, which Endpoint befriends) makes its check fire.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bbp/endpoint.h"
#include "bbp/validator.h"
#include "common/bytes.h"
#include "scramnet/ring.h"
#include "scramnet/sim_port.h"

namespace scrnet::bbp {
namespace {

using scramnet::Ring;
using scramnet::RingConfig;
using scramnet::SimHostPort;

/// Run a 2-rank simulated session; `body` runs as rank 0 with rank 1 as a
/// plain echo peer consuming `peer_recvs` messages.
void run_rank0(u32 peer_recvs,
               const std::function<void(sim::Process&, Endpoint&)>& body) {
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 1u << 14});
  sim.spawn("rank0", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    Endpoint ep(port, 2, 0);
    body(p, ep);
  });
  sim.spawn("rank1", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    Endpoint ep(port, 2, 1);
    std::vector<u8> buf(64);
    for (u32 i = 0; i < peer_recvs; ++i) ASSERT_TRUE(ep.recv(0, buf).ok());
  });
  sim.run();
}

TEST(BbpValidator, CleanSessionPassesEveryCheck) {
  run_rank0(3, [](sim::Process& p, Endpoint& ep) {
    Validator::check(ep, "init");
    ASSERT_TRUE(ep.send(1, std::vector<u8>(40, 1)).ok());
    ASSERT_TRUE(ep.send(1, {}).ok());  // zero-length slot
    Validator::check(ep, "after sends");
    ASSERT_TRUE(ep.send(1, std::vector<u8>(8, 2)).ok());
    ep.drain();
    Validator::check(ep, "after drain");
    p.delay(us(10));
    Validator::check(ep, "idle");
  });
}

TEST(BbpValidator, CleanReceiverPassesWithQueuedMessages) {
  sim::Simulation sim;
  Ring ring(sim, RingConfig{.nodes = 2, .bank_words = 1u << 14});
  sim.spawn("tx", [&](sim::Process& p) {
    SimHostPort port(ring, 0, p);
    Endpoint ep(port, 2, 0);
    for (int i = 0; i < 3; ++i)
      ASSERT_TRUE(ep.send(1, std::vector<u8>(16, static_cast<u8>(i))).ok());
    ep.drain();
  });
  sim.spawn("rx", [&](sim::Process& p) {
    SimHostPort port(ring, 1, p);
    Endpoint ep(port, 2, 1);
    std::vector<u8> buf(16);
    ASSERT_TRUE(ep.recv(0, buf).ok());  // polls: the rest queue up in inq_
    Validator::check(ep, "mid-stream");
    ASSERT_TRUE(ep.recv(0, buf).ok());
    ASSERT_TRUE(ep.recv(0, buf).ok());
    Validator::check(ep, "drained queue");
  });
  sim.run();
}

}  // namespace

/// Breaks one invariant of a settled endpoint at a time.
struct EndpointCorrupter {
  Endpoint& ep;
  u32 base() const { return ep.layout_.data_base(ep.me_); }

  void tail_into_live_extent() {  // tail_ points into the oldest extent
    ep.tail_ += 1;
    ep.data_empty_ = false;
  }
  void flip_data_empty() { ep.data_empty_ = !ep.data_empty_; }
  void flag_mirror() { ep.sent_flag_mirror_[1] ^= 1u; }
  void ack_mirror() { ep.ack_out_mirror_[1] ^= 1u; }
  void repeated_seq() {  // two queued messages with one sequence number
    const Endpoint::Incoming fake{0, 0, 42, base(), 0};
    ep.inq_[0].push_back(fake);
    ep.inq_[0].push_back(fake);
  }
  void in_use_outside_live() { ep.slot_[5].in_use = true; }
  void empty_with_head_off_base() { ep.head_ = base() + 4; }
  void head_past_data_end() { ep.head_ = ep.data_end() + 1; }
  void live_out_of_order() { std::swap(ep.live_[0], ep.live_[1]); }
  void second_extent_wraps_onto_first() { ep.slot_[ep.live_[1]].offset_words = base(); }
  void head_past_last_extent() { ep.head_ += 1; }
  void ack_for_slot_never_sent() { ep.ack_base_[1] ^= 1u << 7; }
};

namespace {

/// Rank 0 posts `live` 32-byte messages rank 1 never receives (their slots
/// stay live), checks clean, applies `corrupt` and expects the check whose
/// message contains `want` to fire.
void expect_check_fires(u32 live, void (EndpointCorrupter::*corrupt)(),
                        std::string_view want) {
  run_rank0(0, [&](sim::Process&, Endpoint& ep) {
    for (u32 i = 0; i < live; ++i) ASSERT_TRUE(ep.send(1, std::vector<u8>(32, 7)).ok());
    Validator::check(ep, "pre-corruption");  // sanity: clean before
    EndpointCorrupter c{ep};
    (c.*corrupt)();
    try {
      Validator::check(ep, "post-corruption");
      FAIL() << "no check fired; expected: " << want;
    } catch (const ValidationError& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
    }
  });
}

TEST(BbpValidator, DetectsTailCorruption) {
  expect_check_fires(1, &EndpointCorrupter::tail_into_live_extent, "wrapped extents reach tail_");
}

TEST(BbpValidator, DetectsDataEmptyCorruption) {
  expect_check_fires(1, &EndpointCorrupter::flip_data_empty, "data_empty_ is true");
}

TEST(BbpValidator, DetectsFlagMirrorDesync) {
  expect_check_fires(1, &EndpointCorrupter::flag_mirror, "disagrees with sent_flag_mirror_");
}

TEST(BbpValidator, DetectsAckMirrorDesync) {
  expect_check_fires(1, &EndpointCorrupter::ack_mirror, "disagrees with ack_out_mirror_");
}

TEST(BbpValidator, DetectsSequenceRegression) {
  expect_check_fires(1, &EndpointCorrupter::repeated_seq, "not after 42");
}

TEST(BbpValidator, DetectsAllocatorStateCorruption) {
  expect_check_fires(1, &EndpointCorrupter::in_use_outside_live, "in_use slot 5 missing from live_");
  expect_check_fires(0, &EndpointCorrupter::empty_with_head_off_base,
                     "empty data partition but head_/tail_ not at base");
  expect_check_fires(1, &EndpointCorrupter::head_past_data_end, "outside the data partition");
  expect_check_fires(2, &EndpointCorrupter::live_out_of_order, "does not follow cursor");
  expect_check_fires(2, &EndpointCorrupter::second_extent_wraps_onto_first,
                     "wrapped extents reach tail_");
  expect_check_fires(1, &EndpointCorrupter::head_past_last_extent, "extent walk ends at");
}

TEST(BbpValidator, DetectsAckForASlotNeverSent) {
  expect_check_fires(1, &EndpointCorrupter::ack_for_slot_never_sent,
                     "acked slot 7 which is not pending");
}

TEST(BbpValidator, ErrorNamesTheFailingCheckSite) {
  run_rank0(0, [](sim::Process&, Endpoint& ep) {
    EndpointCorrupter{ep}.flip_data_empty();
    try {
      Validator::check(ep, "unit-test-site");
      FAIL() << "validator did not fire";
    } catch (const ValidationError& e) {
      EXPECT_NE(std::string(e.what()).find("unit-test-site"), std::string::npos);
    }
  });
}

}  // namespace
}  // namespace scrnet::bbp
