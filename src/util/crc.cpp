#include "util/crc.hpp"

#include <array>

namespace mobiweb {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

}  // namespace

void Crc32::update(ByteSpan data) {
  std::uint32_t c = state_;
  for (std::uint8_t b : data) {
    c = kCrc32Table[(c ^ b) & 0xffu] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t crc32(ByteSpan data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

}  // namespace mobiweb
