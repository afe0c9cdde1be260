// Packet framing: encode/decode, CRC detection, header validation.
#include <gtest/gtest.h>

#include <algorithm>

#include "packet/packet.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace packet = mobiweb::packet;
using mobiweb::Bytes;
using mobiweb::ByteSpan;
using mobiweb::Rng;

namespace {
// A packet views its payload, so the sample's bytes live for the whole run.
const Bytes kSamplePayload(256, 0xab);

packet::Packet sample_packet() {
  packet::Packet p;
  p.doc_id = 7;
  p.seq = 12;
  p.total = 60;
  p.flags = packet::kFlagClearText;
  p.payload = ByteSpan(kSamplePayload);
  return p;
}
}  // namespace

TEST(Packet, RoundTrip) {
  const packet::Packet p = sample_packet();
  const Bytes frame = packet::encode(p);
  EXPECT_EQ(frame.size(), packet::frame_size(256));
  const auto decoded = packet::decode(ByteSpan(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, p);
}

TEST(Packet, DecodedPayloadViewsFrame) {
  // decode copies nothing: the payload is the frame's own bytes.
  const Bytes frame = packet::encode(sample_packet());
  const auto decoded = packet::decode(ByteSpan(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload.data(), frame.data() + packet::kHeaderSize);
  EXPECT_EQ(decoded->payload.size(), 256u);
}

TEST(Packet, FlagsHelpers) {
  packet::Packet p = sample_packet();
  EXPECT_TRUE(p.is_clear_text());
  EXPECT_FALSE(p.is_last());
  p.flags = packet::kFlagLast;
  EXPECT_TRUE(p.is_last());
  EXPECT_FALSE(p.is_clear_text());
}

TEST(Packet, EveryByteFlipDetected) {
  const packet::Packet p = sample_packet();
  const Bytes frame = packet::encode(p);
  Rng rng(31);
  // Flip each byte position once (all positions, not a sample: the guarantee
  // is that ANY single-byte corruption is caught).
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    Bytes bad = frame;
    bad[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    EXPECT_FALSE(packet::decode(ByteSpan(bad)).has_value()) << "pos=" << pos;
  }
}

TEST(Packet, MultiByteCorruptionDetected) {
  const packet::Packet p = sample_packet();
  const Bytes frame = packet::encode(p);
  Rng rng(32);
  int undetected = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes bad = frame;
    const std::size_t flips = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < flips; ++i) {
      bad[rng.next_below(bad.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    undetected += packet::decode(ByteSpan(bad)).has_value();
  }
  // CRC-32 collisions for random corruption are ~2^-32; none expected here.
  EXPECT_EQ(undetected, 0);
}

TEST(Packet, TruncatedFrameRejected) {
  const Bytes frame = packet::encode(sample_packet());
  for (std::size_t keep : {0u, 5u, 11u, 100u}) {
    const Bytes cut(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(packet::decode(ByteSpan(cut)).has_value()) << keep;
  }
}

TEST(Packet, InconsistentHeaderRejected) {
  packet::Packet p = sample_packet();
  p.seq = 60;   // seq >= total
  p.total = 60;
  const Bytes frame = packet::encode(p);
  EXPECT_FALSE(packet::decode(ByteSpan(frame)).has_value());

  packet::Packet zero = sample_packet();
  zero.total = 0;
  EXPECT_FALSE(packet::decode(ByteSpan(packet::encode(zero))).has_value());
}

TEST(Packet, EmptyPayloadAllowed) {
  packet::Packet p;
  p.doc_id = 1;
  p.seq = 0;
  p.total = 1;
  const Bytes frame = packet::encode(p);
  const auto decoded = packet::decode(ByteSpan(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(Packet, PaperOverheadDocumented) {
  // The wire format costs 12 bytes per packet; the paper's simulation uses
  // O = 4 (CRC + seq only). Both are constants the rest of the system reads
  // from here rather than hard-coding.
  EXPECT_EQ(packet::kFramingOverhead, 12u);
  EXPECT_EQ(packet::frame_size(256), 268u);
}

TEST(PacketHardening, OversizedFrameRejectedBeforeAllocation) {
  // A frame longer than frame_size(kMaxPayloadSize) implies a payload above
  // the protocol cap; decode refuses it without touching the contents.
  const Bytes huge(packet::frame_size(packet::kMaxPayloadSize) + 1, 0x5a);
  EXPECT_FALSE(packet::decode(ByteSpan(huge)).has_value());
}

TEST(PacketHardening, MaxPayloadRoundTrips) {
  packet::Packet p;
  p.doc_id = 3;
  p.seq = 0;
  p.total = 1;
  const Bytes payload(packet::kMaxPayloadSize, 0xcd);
  p.payload = ByteSpan(payload);
  const Bytes frame = packet::encode(p);
  const auto decoded = packet::decode(ByteSpan(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::ranges::equal(decoded->payload, payload));
}

TEST(PacketHardening, EncodeRefusesPayloadAboveCap) {
  packet::Packet p;
  p.doc_id = 3;
  p.seq = 0;
  p.total = 1;
  const Bytes payload(packet::kMaxPayloadSize + 1, 0x00);
  p.payload = ByteSpan(payload);
  EXPECT_THROW(packet::encode(p), mobiweb::ContractViolation);
}
