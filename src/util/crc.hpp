// Cyclic redundancy codes used for packet-corruption detection (paper §4.1:
// "we propose to adopt the cyclic redundancy code (CRC) for the detection of
// packet corruption, since it has a low computational cost and a high error
// coverage").
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace mobiweb {

// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320). On x86-64 CPUs with
// PCLMULQDQ, inputs of 64 bytes or more fold their whole 16-byte blocks with
// carry-less multiplies (four 128-bit lanes, then a Barrett reduction); the
// last len mod 16 bytes, and every input on other hosts, go through
// slicing-by-8. Both paths give the same value for every input.
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

namespace detail {
// The portable slicing-by-8 path alone: advances the (pre-inverted) CRC
// register `reg` over `data`. Exposed so tests reach it on hosts that fold.
std::uint32_t crc32_update_portable(std::uint32_t reg, ByteSpan data);
}  // namespace detail

}  // namespace mobiweb
