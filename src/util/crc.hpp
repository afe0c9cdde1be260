// Cyclic redundancy codes used for packet-corruption detection (paper §4.1:
// "we propose to adopt the cyclic redundancy code (CRC) for the detection of
// packet corruption, since it has a low computational cost and a high error
// coverage").
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace mobiweb {

// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), slicing-by-8.
std::uint32_t crc32(ByteSpan data);

// Incremental form: feed chunks, then finalize. Equivalent to crc32() over the
// concatenation of all chunks.
class Crc32 {
 public:
  void update(ByteSpan data);
  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xffffffffu; }
  void reset() { state_ = 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

}  // namespace mobiweb
