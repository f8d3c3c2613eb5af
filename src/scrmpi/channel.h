// The Channel Interface -- the lowest layer of the MPICH architecture the
// paper ports ("we have developed a SCRAMNet Channel layer device which is
// a minimal implementation of the Channel Interface").
//
// MPICH's channel interface is MPID_SendControl / MPID_ControlMsgAvail /
// MPID_RecvAnyControl plus MPID_SendChannel / MPID_RecvFromChannel for
// bulk data. Here the control+data pair is fused into whole packets: a
// device accepts a (header, payload) and produces fully reassembled
// packets, which keeps the upper layers device-independent while letting
// each device choose its own framing (one BBP message per packet on
// SCRAMNet; header+stream bytes on sockets).
#pragma once

#include <cassert>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/units.h"
#include "sim/fn_ref.h"

namespace scrnet::scrmpi {

/// Packet kinds used by the ADI protocols and collectives.
enum class PktKind : u8 {
  kShort = 1,     // eager: envelope + payload inline (device may stream)
  kRndvRts = 3,   // rendezvous request-to-send (aux = sender request id)
  kRndvCts = 4,   // rendezvous clear-to-send   (aux = sender request id)
  kRndvData = 5,  // rendezvous payload          (aux = receiver request id)
  kCollData = 6,  // native-multicast collective payload (Bcast)
  kCollBarrier = 7,   // barrier arrival notification (aux = epoch)
  kCollRelease = 8,   // barrier release from coordinator (aux = epoch)
  kRndvFin = 9,   // zero-copy rendezvous completion (aux = receiver req id)
};

/// Fixed 20-byte envelope carried by every packet.
struct PktHeader {
  PktKind kind = PktKind::kShort;
  u16 ctx = 0;     // communicator context id
  i32 tag = 0;
  u32 src = 0;     // world rank of the sender
  u32 len = 0;     // payload bytes
  u32 aux = 0;     // protocol-specific (request id / barrier epoch)
};

inline constexpr u32 kHeaderWords = 5;
inline constexpr u32 kHeaderBytes = kHeaderWords * 4;

/// Serialize/deserialize the envelope (word 0 packs kind+ctx).
inline void encode_header(const PktHeader& h, u32 out[kHeaderWords]) {
  out[0] = static_cast<u32>(h.kind) | (static_cast<u32>(h.ctx) << 8);
  out[1] = static_cast<u32>(h.tag);
  out[2] = h.src;
  out[3] = h.len;
  out[4] = h.aux;
}

inline PktHeader decode_header(const u32 in[kHeaderWords]) {
  PktHeader h;
  h.kind = static_cast<PktKind>(in[0] & 0xFF);
  h.ctx = static_cast<u16>(in[0] >> 8);
  h.tag = static_cast<i32>(in[1]);
  h.src = in[2];
  h.len = in[3];
  h.aux = in[4];
  return h;
}

struct Packet {
  PktHeader hdr;
  std::vector<u8> payload;
};

/// The packet frame a device carries as one byte string: the envelope's
/// kHeaderBytes, then exactly hdr.len payload bytes.
inline std::vector<u8> frame_packet(const PktHeader& hdr,
                                    std::span<const u8> payload) {
  std::vector<u8> bytes(kHeaderBytes + payload.size());
  u32 words[kHeaderWords];
  encode_header(hdr, words);
  std::memcpy(bytes.data(), words, kHeaderBytes);
  if (!payload.empty())
    std::memcpy(bytes.data() + kHeaderBytes, payload.data(), payload.size());
  return bytes;
}

/// The packet in a frame, its payload moved out of `bytes`; nullopt for a
/// runt (shorter than the envelope) or a frame whose payload is not the
/// envelope's len bytes long.
inline std::optional<Packet> unframe_packet(std::vector<u8> bytes) {
  if (bytes.size() < kHeaderBytes) return std::nullopt;
  u32 words[kHeaderWords];
  std::memcpy(words, bytes.data(), kHeaderBytes);
  Packet pkt;
  pkt.hdr = decode_header(words);
  if (bytes.size() - kHeaderBytes != pkt.hdr.len) return std::nullopt;
  bytes.erase(bytes.begin(), bytes.begin() + kHeaderBytes);
  pkt.payload = std::move(bytes);
  return pkt;
}

/// The RTS payload: the rendezvous message's total length as 4 bytes
/// (hdr.len is always the framed payload size, which for an RTS is 4).
inline u32 rts_msg_len(std::span<const u8> payload) {
  assert(payload.size() == 4);
  u32 len = 0;
  std::memcpy(&len, payload.data(), 4);
  return len;
}

/// Destination placement a receiver grants to a sender in a zero-copy
/// rendezvous CTS. Carried as the CTS payload (kPlacementBytes on the
/// wire); opaque to the ADI beyond round-tripping it back to the device.
///
///   addr  -- device-specific placement (billboard word address, RDMA VA)
///   bytes -- capacity granted (receiver clips to its posted buffer)
///   rkey  -- remote access key / registration handle (0 when unused)
///   via   -- routing cookie for a composite device; no device sets it,
///            but it stays on the wire: the CTS payload size is timing
struct RndvPlacement {
  u64 addr = 0;
  u32 bytes = 0;
  u32 rkey = 0;
  u32 via = 0;
};

inline constexpr u32 kPlacementBytes = 20;

inline void encode_placement(const RndvPlacement& p, u8 out[kPlacementBytes]) {
  const u32 w[5] = {static_cast<u32>(p.addr), static_cast<u32>(p.addr >> 32),
                    p.bytes, p.rkey, p.via};
  std::memcpy(out, w, kPlacementBytes);
}

inline RndvPlacement decode_placement(std::span<const u8> in) {
  u32 w[5] = {};
  std::memcpy(w, in.data(), kPlacementBytes);
  RndvPlacement p;
  p.addr = static_cast<u64>(w[0]) | (static_cast<u64>(w[1]) << 32);
  p.bytes = w[2];
  p.rkey = w[3];
  p.via = w[4];
  return p;
}

/// Optional zero-copy put capability (the MPICH2-over-InfiniBand RDMA
/// extension of the channel interface). A device with remote-write hardware
/// hands one out through ChannelDevice::put(); without it the ADI takes the
/// copy-based kRndvData path.
class RndvPut {
 public:
  virtual ~RndvPut() = default;

  /// Receiver side: reserve placement for up to `bytes`, targeting the
  /// posted user buffer `dest`; any sender may write it. On success the
  /// placement travels back to the sender inside the CTS payload. Failure
  /// (window full, registration failed) is not an error -- the ADI falls
  /// back to the copy path for this message.
  virtual Result<RndvPlacement> rndv_reserve(u32 bytes, std::span<u8> dest) = 0;

  /// Sender side: remote-write `payload` into `placement` on `dst`, then
  /// deliver the FIN packet (header only). The device guarantees FIN
  /// arrives after the data is visible at the placement (ring ordering on
  /// BBP, CQE-gated send on RDMA), so the receiver may complete on FIN
  /// alone.
  virtual Status rndv_put(u32 dst, const RndvPlacement& placement,
                          std::span<const u8> payload, const PktHeader& fin_hdr) = 0;

  /// Receiver side, on FIN: make the first `len` placement bytes visible in
  /// `buf`. Devices that staged the payload in replicated memory pay the
  /// host read here (the data still has to reach host memory); true RDMA
  /// devices already landed it in `buf` and only poll their CQ.
  virtual Status rndv_complete(const RndvPlacement& placement,
                               std::span<u8> buf, u32 len) = 0;

  /// Receiver side: release a reservation (after completion, or on timeout
  /// when the sender died mid-rendezvous). Must be safe to call for any
  /// placement previously returned by rndv_reserve on this device.
  virtual void rndv_release(const RndvPlacement& placement) = 0;
};

/// A channel device: one per MPI process.
class ChannelDevice {
 public:
  virtual ~ChannelDevice() = default;

  virtual u32 rank() const = 0;
  virtual u32 size() const = 0;

  /// Short device-family name ("bbp", "sock", "hybrid", "rdma") keying the
  /// collective decision table (src/tune/).
  virtual std::string_view kind() const = 0;

  /// MPID_SendControl (+ MPID_SendChannel fused): transmit one packet.
  /// Degraded-mode devices surface bounded-wait expiry as kTimedOut (the
  /// BBP device under a lost ACK path); a clean transmit is kOk. Malformed
  /// arguments are still programming errors.
  virtual Status send_packet(u32 dst, const PktHeader& hdr,
                             std::span<const u8> payload) = 0;

  /// MPID_ControlMsgAvail + MPID_RecvAnyControl fused: return the next
  /// fully reassembled packet if one is available (non-blocking).
  virtual std::optional<Packet> poll_packet() = 0;

  /// Frames poll_packet received but could not reassemble into a packet
  /// (torn or truncated under fault injection); counted and dropped.
  virtual u64 dropped_frames() const { return 0; }

  /// Largest payload one native multicast carries; 0 when the device has
  /// no single-step multicast (SCRAMNet's hardware replication is the hook
  /// MPICH reserves for devices with extra functionality). For BBP this is
  /// the sender's billboard data partition (bank/procs scaled): a larger
  /// post would be rejected -- and since collective transport is
  /// fire-and-forget, silently dropped, deadlocking the receivers. The
  /// native bcast chunks payloads above this cap.
  virtual u32 mcast_cap() const { return 0; }

  /// Multicast a packet; default loops over send_packet and stops at the
  /// first failure.
  virtual Status mcast_packet(std::span<const u32> dsts, const PktHeader& hdr,
                              std::span<const u8> payload) {
    for (u32 d : dsts) {
      if (Status st = send_packet(d, hdr, payload); !st.ok()) return st;
    }
    return Status::Ok();
  }

  /// CPU cost of packetizing `len` payload bytes into this device (the
  /// channel-interface copy). Device-specific: the BBP channel pays a real
  /// extra pass; a sockets channel folds it into the kernel copy the TCP
  /// stack already charges.
  virtual SimTime pack_cost(u32 len) const = 0;
  /// CPU cost of delivering `len` payload bytes out of this device.
  virtual SimTime unpack_cost(u32 len) const = 0;

  /// Account CPU time spent in the MPI software layers above the device.
  virtual void cpu(SimTime dt) = 0;

  /// Current virtual time; used for statistics and bounded waits.
  virtual SimTime now() const = 0;

  /// The one way the ADI waits: calls ready() until it holds (true) or
  /// `deadline` (absolute; 0 = none) has passed (false), backing off one
  /// device poll period between failed passes (sim::Process::spin_until).
  virtual bool spin_until(const char* site, SimTime deadline,
                          sim::FnRef<bool()> ready) = 0;

  /// Largest payload the device prefers to carry eagerly; above this the
  /// ADI switches to rendezvous.
  virtual u32 eager_limit() const = 0;

  /// The zero-copy put capability, or null when the device has none.
  virtual RndvPut* put() { return nullptr; }
};

}  // namespace scrnet::scrmpi
