// TCP/IP software-stack cost model (Linux 2.0-era, per the paper's testbed).
//
// This is deliberately a *cost* model, not a congestion/retransmission
// implementation: every experiment in the paper is a lossless LAN
// microbenchmark, so what matters is the overhead structure --
// syscall + protocol fixed costs, user<->kernel copies, software
// checksumming, per-segment processing, and MSS segmentation -- layered
// over a Fabric that models the wire.
//
// Semantics are stream-oriented like a connected TCP socket: send() writes
// bytes toward a destination host, recv() blocks until exactly n bytes
// from a given source have arrived.
#pragma once

#include <deque>
#include <span>
#include <vector>

#include "netmodels/fabric.h"

namespace scrnet::netmodels {

struct TcpConfig {
  SimTime send_fixed = us(18);      // syscall + tcp_sendmsg path, per call
  SimTime recv_fixed = us(20);      // syscall + wakeup, per call
  SimTime per_segment_send = us(2); // header build + driver handoff
  SimTime per_segment_recv = us(3); // interrupt + protocol input processing
  SimTime per_byte_copy = ns(10);   // user<->kernel copy, each direction
  SimTime per_byte_csum = ns(8);    // software checksum (0 if NIC offloads)

  static constexpr u32 header_bytes = 40;  // TCP + IP headers per segment

  /// TCP over switched Fast Ethernet (the paper's baseline LAN).
  static TcpConfig fast_ethernet() {
    TcpConfig c;
    c.per_byte_copy = ns(12);
    c.per_byte_csum = ns(10);
    return c;
  }

  /// TCP over ATM (classical IP, AAL5). The adapter computes the AAL5 CRC
  /// in hardware, but the driver path is heavier than Ethernet's.
  static TcpConfig atm() {
    TcpConfig c;
    c.send_fixed = us(33);
    c.recv_fixed = us(38);
    c.per_segment_send = us(3);
    c.per_segment_recv = us(4);
    c.per_byte_csum = ns(0);
    return c;
  }

  /// TCP over Myrinet: a fast wire behind the same kernel stack plus a
  /// heavyweight encapsulation driver -- contemporary measurements put its
  /// small-message latency *above* Ethernet's, as Figure 2 shows.
  static TcpConfig myrinet() {
    TcpConfig c;
    c.send_fixed = us(40);
    c.recv_fixed = us(44);
    c.per_segment_send = us(4);
    c.per_segment_recv = us(5);
    return c;
  }
};

class TcpStack {
 public:
  /// One stack instance per host; it owns the host's fabric RX mailbox.
  TcpStack(Fabric& fabric, u32 host, TcpConfig cfg)
      : fabric_(fabric), host_(host), cfg_(cfg), streams_(fabric.hosts()) {}

  u32 host() const { return host_; }
  u32 mss() const { return fabric_.mtu_payload() - TcpConfig::header_bytes; }

  /// Stream write toward `dst`; returns once the data is handed to the NIC
  /// (socket-buffer semantics; the benches' messages fit the send buffer).
  void send(sim::Process& p, u32 dst, std::span<const u8> data);

  /// Stream read: block until exactly `nbytes` from `src` are available,
  /// then copy them into `out` (out.size() >= nbytes).
  void recv(sim::Process& p, u32 src, std::span<u8> out, usize nbytes);

  /// Bytes currently buffered from `src` (testing aid).
  usize buffered(u32 src) const { return streams_[src].size(); }

  // -- non-blocking interface (used by poll-mode consumers like ch_sock) ---

  /// Absorb every frame the fabric has already delivered, paying RX costs;
  /// returns the number of frames absorbed.
  usize try_absorb(sim::Process& p);

  /// Frames absorbed so far, by try_absorb() and recv() alike. Streams gain
  /// bytes only here, so a poller that scanned them in vain need not scan
  /// again until this moves.
  u64 frames_absorbed() const { return frames_absorbed_; }

  /// Copy the first out.size() buffered bytes from `src` without consuming;
  /// false if not enough bytes are buffered.
  bool peek(u32 src, std::span<u8> out) const;

  /// Consume exactly `nbytes` buffered bytes from `src` (caller must have
  /// verified availability); charges the syscall-return cost.
  void consume(sim::Process& p, u32 src, std::span<u8> out, usize nbytes);

 private:
  /// Pull one frame from the fabric, paying RX costs, and demux it.
  void absorb_frame(sim::Process& p);

  Fabric& fabric_;
  u32 host_;
  TcpConfig cfg_;
  std::vector<std::deque<u8>> streams_;  // reassembled bytes per source
  u64 frames_absorbed_ = 0;
};

}  // namespace scrnet::netmodels
