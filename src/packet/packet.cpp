#include "packet/packet.hpp"

#include "util/check.hpp"
#include "util/crc.hpp"

namespace mobiweb::packet {

Bytes encode(const Packet& packet) {
  MOBIWEB_CHECK_MSG(packet.payload.size() <= kMaxPayloadSize,
                    "packet::encode: payload exceeds kMaxPayloadSize");
  Bytes out;
  out.reserve(frame_size(packet.payload.size()));
  put_u16(out, packet.doc_id);
  put_u16(out, packet.seq);
  put_u16(out, packet.total);
  put_u16(out, packet.flags);
  out.insert(out.end(), packet.payload.begin(), packet.payload.end());
  const std::uint32_t crc = crc32(ByteSpan(out));
  put_u32(out, crc);
  return out;
}

std::optional<Packet> decode(ByteSpan frame) {
  if (frame.size() < kFramingOverhead) return std::nullopt;
  if (frame.size() > frame_size(kMaxPayloadSize)) return std::nullopt;
  const std::size_t body = frame.size() - kTrailerSize;
  const std::uint32_t stated = get_u32(frame, body);
  const std::uint32_t actual = crc32(frame.subspan(0, body));
  if (stated != actual) return std::nullopt;

  Packet p;
  p.doc_id = get_u16(frame, 0);
  p.seq = get_u16(frame, 2);
  p.total = get_u16(frame, 4);
  p.flags = get_u16(frame, 6);
  if (p.total == 0 || p.seq >= p.total) return std::nullopt;
  p.payload = frame.subspan(kHeaderSize, body - kHeaderSize);
  return p;
}

std::size_t frame_size(std::size_t payload_size) {
  return payload_size + kFramingOverhead;
}

}  // namespace mobiweb::packet
