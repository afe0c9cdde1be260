// Fuzz target: packet::decode, ClientReceiver::on_frame and the CRC-32 that
// guards them — the bytes a client pulls off the lossy 19.2 kbps channel.
// Four modes share the input:
//
//   0: decode arbitrary bytes as a frame; whatever decodes must re-encode to
//      a frame that decodes to the identical packet (decode∘encode identity);
//   1: build a valid packet, encode it, decode it back, then flip one byte —
//      CRC32 detects every single-byte error, so the damaged frame must be
//      rejected;
//   2: stream arbitrary frames into a ClientReceiver and check that the
//      frame accounting stays consistent (classification is exclusive,
//      counters sum, corruption estimate stays in [0, 1]);
//   3: crc32 of arbitrary bytes at an arbitrary start offset equals the
//      bit-at-a-time reference on both paths, Crc32 (the carry-less-multiply
//      fold where the CPU has it) and the portable slicing-by-8, each one-shot
//      and split at an arbitrary offset.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "crc32_reference.hpp"
#include "fuzz_input.hpp"
#include "packet/packet.hpp"
#include "transmit/receiver.hpp"
#include "util/crc.hpp"

namespace packet = mobiweb::packet;
namespace transmit = mobiweb::transmit;
using mobiweb::Bytes;
using mobiweb::ByteSpan;
using mobiweb::fuzz::FuzzInput;

namespace {

void check_decoded_invariants(const packet::Packet& p) {
  MOBIWEB_FUZZ_ASSERT(p.total > 0, "decoded packet with total == 0");
  MOBIWEB_FUZZ_ASSERT(p.seq < p.total, "decoded packet with seq >= total");
  MOBIWEB_FUZZ_ASSERT(p.payload.size() <= packet::kMaxPayloadSize,
                      "decoded payload above kMaxPayloadSize");
}

void mode_raw_decode(FuzzInput& in) {
  const Bytes frame = in.take_remaining();
  const auto decoded = packet::decode(ByteSpan(frame));
  if (!decoded) return;
  check_decoded_invariants(*decoded);
  const Bytes reencoded = packet::encode(*decoded);
  const auto again = packet::decode(ByteSpan(reencoded));
  MOBIWEB_FUZZ_ASSERT(again.has_value(), "re-encoded frame failed to decode");
  MOBIWEB_FUZZ_ASSERT(*again == *decoded, "decode/encode identity broken");
}

void mode_bitflip(FuzzInput& in) {
  packet::Packet p;
  p.doc_id = static_cast<std::uint16_t>(in.take_in_range(0, 0xffff));
  p.total = static_cast<std::uint16_t>(in.take_in_range(1, 0xffff));
  p.seq = static_cast<std::uint16_t>(in.take_index(p.total));
  p.flags = static_cast<std::uint16_t>(in.take_in_range(0, 3));
  const Bytes payload = in.take_bytes(in.take_in_range(0, 512));
  p.payload = ByteSpan(payload);

  const Bytes frame = packet::encode(p);
  const auto decoded = packet::decode(ByteSpan(frame));
  MOBIWEB_FUZZ_ASSERT(decoded.has_value(), "valid frame failed to decode");
  MOBIWEB_FUZZ_ASSERT(*decoded == p, "valid frame decoded differently");

  Bytes damaged = frame;
  const std::size_t at = in.take_index(damaged.size());
  const auto mask = static_cast<std::uint8_t>(in.take_in_range(1, 255));
  damaged[at] ^= mask;
  MOBIWEB_FUZZ_ASSERT(!packet::decode(ByteSpan(damaged)).has_value(),
                      "single-byte corruption slipped past the CRC");
}

void mode_receiver(FuzzInput& in) {
  transmit::ReceiverConfig config;
  config.doc_id = static_cast<std::uint16_t>(in.take_in_range(1, 4));
  config.m = in.take_in_range(1, 8);
  config.n = config.m + in.take_in_range(0, 8);
  config.packet_size = in.take_in_range(1, 64);
  config.payload_size = in.take_in_range((config.m - 1) * config.packet_size + 1,
                                         config.m * config.packet_size);
  config.caching = in.take_bool();
  transmit::ClientReceiver receiver(config, {});

  const std::size_t frames = in.take_in_range(0, 32);
  long intact = 0;
  long corrupted = 0;
  long foreign = 0;
  for (std::size_t i = 0; i < frames && !in.empty(); ++i) {
    Bytes frame;
    if (in.take_bool()) {
      // A frame off the wire: often valid for this very transfer.
      packet::Packet p;
      p.doc_id = static_cast<std::uint16_t>(in.take_in_range(1, 4));
      p.total = static_cast<std::uint16_t>(in.take_in_range(1, 2 * config.n));
      p.seq = static_cast<std::uint16_t>(in.take_index(p.total));
      const Bytes payload =
          in.take_bytes(in.take_in_range(0, config.packet_size + 2));
      p.payload = ByteSpan(payload);
      frame = packet::encode(p);
      if (in.take_bool()) {  // sometimes corrupt it on the air
        frame[in.take_index(frame.size())] ^=
            static_cast<std::uint8_t>(in.take_in_range(1, 255));
      }
    } else {
      frame = in.take_bytes(in.take_in_range(0, 48));
    }
    const auto result = receiver.on_frame(ByteSpan(frame));
    const int classes = (result.intact ? 1 : 0) + (result.corrupted ? 1 : 0) +
                        (result.foreign ? 1 : 0);
    MOBIWEB_FUZZ_ASSERT(classes == 1, "frame classification not exclusive");
    if (result.intact) ++intact;
    if (result.corrupted) ++corrupted;
    if (result.foreign) ++foreign;
    if (in.take_bool()) receiver.on_round_end();
  }
  MOBIWEB_FUZZ_ASSERT(receiver.frames_seen() == intact + corrupted + foreign,
                      "frame counters do not sum");
  MOBIWEB_FUZZ_ASSERT(receiver.frames_corrupted() == corrupted,
                      "corrupted counter mismatch");
  MOBIWEB_FUZZ_ASSERT(receiver.frames_foreign() == foreign,
                      "foreign counter mismatch");
  const double rate = receiver.observed_corruption_rate();
  MOBIWEB_FUZZ_ASSERT(rate >= 0.0 && rate <= 1.0,
                      "corruption rate outside [0, 1]");
  // The decoder holds every clear-text packet (< m) plus at most m - 1
  // redundancy packets buffered before the clear prefix filled in.
  MOBIWEB_FUZZ_ASSERT(receiver.intact_count() < 2 * config.m + 1,
                      "decoder holds more packets than it can ever use");
}

void mode_crc(FuzzInput& in) {
  const std::size_t offset = in.take_in_range(0, 7);
  const std::size_t split = in.take_in_range(0, 0xffff);
  const Bytes bytes = in.take_remaining();
  const ByteSpan data = ByteSpan(bytes).subspan(std::min(offset, bytes.size()));
  const std::uint32_t reference = mobiweb::testing::crc32_reference(data);
  MOBIWEB_FUZZ_ASSERT(mobiweb::crc32(data) == reference,
                      "crc32 differs from the bit-at-a-time reference");
  const std::uint32_t portable =
      mobiweb::detail::crc32_update_portable(0xffffffffu, data) ^ 0xffffffffu;
  MOBIWEB_FUZZ_ASSERT(portable == reference,
                      "portable crc32 differs from the bit-at-a-time reference");
  const std::size_t at = split % (data.size() + 1);
  mobiweb::Crc32 crc;
  crc.update(data.first(at));
  crc.update(data.subspan(at));
  MOBIWEB_FUZZ_ASSERT(crc.value() == reference,
                      "split Crc32::update differs from the reference");
  const std::uint32_t portable_split = mobiweb::detail::crc32_update_portable(
      mobiweb::detail::crc32_update_portable(0xffffffffu, data.first(at)),
      data.subspan(at));
  MOBIWEB_FUZZ_ASSERT((portable_split ^ 0xffffffffu) == reference,
                      "split portable crc32 differs from the reference");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size > (1u << 18)) return 0;
  FuzzInput in(data, size);
  switch (in.take_in_range(0, 3)) {
    case 0: mode_raw_decode(in); break;
    case 1: mode_bitflip(in); break;
    case 2: mode_receiver(in); break;
    default: mode_crc(in); break;
  }
  return 0;
}
