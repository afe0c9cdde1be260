#include "util/crc.hpp"

#include <array>

#if defined(__x86_64__)
#define MOBIWEB_CRC_X86 1
#include <immintrin.h>
#endif

namespace mobiweb {

namespace {

// Slicing-by-8 (Kounavis & Berry, ISCC 2005). kTables[0] is the classic
// byte-at-a-time table; kTables[k][b] is the CRC contribution of byte b
// followed by k zero bytes, so eight table lookups advance the register over
// eight input bytes at once.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

// Little-endian load assembled from bytes: one code path on every host, and
// compilers fold it into a single unaligned load where the host allows.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

#if defined(MOBIWEB_CRC_X86)

bool pclmul_supported() {
  static const bool supported = __builtin_cpu_supports("pclmul") != 0 &&
                                __builtin_cpu_supports("sse4.1") != 0;
  return supported;
}

// One fold step: carries the 128-bit remainder x forward over the fold
// distance (its low half times k's low constant, its high half times k's high
// constant) and adds the block d that sits there.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i x, __m128i k,
                                                              __m128i d) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       d);
}

// Carry-less-multiply fold (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ", Intel, 2009) over n bytes, n >= 64 and a
// multiple of 16: four lanes fold 64 bytes per step, then fold into one lane,
// reduce 128 -> 64 -> 32 bits and finish with a Barrett reduction. Each fold
// constant is x^(D±32) mod P for a fold distance of D bits (512 across four
// lanes, 128 within one), bit-reflected and shifted left by one to suit the
// reflected 0xEDB88320.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(
    std::uint32_t reg, const std::uint8_t* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);  // 4 lanes
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);  // 1 lane
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);               // 64 -> 32
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);   // u', P'
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  const auto load = [](const std::uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(reg)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k3k4, load(p));
  // 128 -> 64 bits (appending 32 zero bits), then 64 -> 32.
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k3k4, 0x10), _mm_srli_si128(x0, 8));
  __m128i t = _mm_and_si128(x0, mask32);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4), _mm_clmulepi64_si128(t, k5, 0x00));
  // Barrett reduction: q = floor(x / P) from u' = floor(x^64 / P), then x - qP.
  t = _mm_and_si128(_mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly, 0x10),
                    mask32);
  x0 = _mm_xor_si128(x0, _mm_clmulepi64_si128(t, poly, 0x00));
  return static_cast<std::uint32_t>(_mm_extract_epi32(x0, 1));
}

#endif

}  // namespace

namespace detail {

std::uint32_t crc32_update_portable(std::uint32_t reg, ByteSpan data) {
  const auto& t = kCrc32Tables;
  std::uint32_t c = reg;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  // The last n < 8 bytes, one at a time.
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c;
}

}  // namespace detail

void Crc32::update(ByteSpan data) {
#if defined(MOBIWEB_CRC_X86)
  if (data.size() >= 64 && pclmul_supported()) {
    const std::size_t folded = data.size() & ~std::size_t{15};
    state_ = crc32_fold(state_, data.data(), folded);
    data = data.subspan(folded);
  }
#endif
  state_ = detail::crc32_update_portable(state_, data);
}

std::uint32_t crc32(ByteSpan data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

}  // namespace mobiweb
