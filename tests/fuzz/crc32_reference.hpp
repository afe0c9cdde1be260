// Bit-at-a-time CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320): the
// textbook definition with no tables, the oracle that the slicing-by-8
// mobiweb::crc32 is checked against by test_util and fuzz_packet.
#pragma once

#include <cstdint>
#include <span>

namespace mobiweb::testing {

// Advances the (pre-inverted) CRC register over one byte.
inline std::uint32_t crc32_reference_step(std::uint32_t c, std::uint8_t b) {
  c ^= b;
  for (int bit = 0; bit < 8; ++bit) {
    c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c;
}

inline std::uint32_t crc32_reference(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xffffffffu;
  for (const std::uint8_t b : data) c = crc32_reference_step(c, b);
  return c ^ 0xffffffffu;
}

}  // namespace mobiweb::testing
