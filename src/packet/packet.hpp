// Wire format of a cooked packet (paper §4.1).
//
// "Data packets are received either intact (without error) or corrupted (with
// detectable error). A missing packet can be detected when the next packet is
// received, since the wireless channel is FIFO but unreliable. Simple
// sequence number as used in the datalink layer transmission protocol
// suffices ... we propose to adopt the cyclic redundancy code (CRC) for the
// detection of packet corruption."
//
// Layout (little-endian), header first:
//   u16 doc_id      document identifier within a browsing session
//   u16 seq         cooked-packet index in [0, N)
//   u16 total       N, so the receiver can detect the end of a round
//   u16 flags       bit 0: clear-text (systematic prefix); bit 1: last packet
//   payload         s_p bytes
//   u32 crc32       over header + payload
//
// The paper's framing overhead O (CRC + sequence number) is 4 bytes on a
// 256-byte payload; this richer header plus trailer is 12 bytes. The
// simulator keeps the paper's O = 4 as a parameter; the wire format here is
// what the runnable client/server actually exchanges.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "util/bytes.hpp"

namespace mobiweb::packet {

inline constexpr std::size_t kHeaderSize = 8;   // doc_id, seq, total, flags
inline constexpr std::size_t kTrailerSize = 4;  // crc32
inline constexpr std::size_t kFramingOverhead = kHeaderSize + kTrailerSize;

inline constexpr std::uint16_t kFlagClearText = 1u << 0;
inline constexpr std::uint16_t kFlagLast = 1u << 1;

// Upper bound on a cooked packet's payload. Frames on the 19.2 kbps channel
// carry a few hundred bytes; anything beyond this is a forged or corrupt
// length and is rejected before any allocation happens.
inline constexpr std::size_t kMaxPayloadSize = 1u << 16;

// A packet's header plus a view of its payload bytes, which it does not own:
// encode() reads the payload through the view, and decode() returns a packet
// whose payload views the frame it parsed.
struct Packet {
  std::uint16_t doc_id = 0;
  std::uint16_t seq = 0;
  std::uint16_t total = 0;
  std::uint16_t flags = 0;
  ByteSpan payload;

  [[nodiscard]] bool is_clear_text() const { return flags & kFlagClearText; }
  [[nodiscard]] bool is_last() const { return flags & kFlagLast; }

  // Same header and same payload bytes (wherever they live).
  bool operator==(const Packet& o) const {
    return doc_id == o.doc_id && seq == o.seq && total == o.total &&
           flags == o.flags && std::ranges::equal(payload, o.payload);
  }
};

// Serializes header + payload + CRC trailer.
Bytes encode(const Packet& packet);

// Parses and validates a frame. Returns nullopt when the frame is too short,
// the CRC does not match (corruption), or total/seq are inconsistent — i.e.
// exactly the "corrupted (with detectable error)" case. The payload is a view
// into `frame`, valid while the frame's bytes are.
std::optional<Packet> decode(ByteSpan frame);

// Size on the wire of a packet with `payload_size` payload bytes.
std::size_t frame_size(std::size_t payload_size);

}  // namespace mobiweb::packet
