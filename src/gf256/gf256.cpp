#include "gf256/gf256.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "obs/profile.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MOBIWEB_GF_X86 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define MOBIWEB_GF_NEON 1
#include <arm_neon.h>
#endif

namespace mobiweb::gf {

namespace detail {
const Tables& tables() {
  static const Tables t;
  return t;
}
}  // namespace detail

namespace {

// Per-coefficient lookup tables for the fast kernels, built lazily: the
// simulator only ever touches the coefficients of the generator shapes in
// use, so materialising all 256 rows up front would be wasted work.
//
//   full[c][x]          = c * x                     (kMulTable)
//   nib[c].lo[x & 0xf]  = c * x for the low nibble  (kSimd)
//   nib[c].hi[x >> 4]   = c * (x << 4)
//
// c*x = lo[x & 0xf] ^ hi[x >> 4] by distributivity over GF(2) addition.
struct alignas(16) NibbleTables {
  Elem lo[16];
  Elem hi[16];
};

struct CoeffTables {
  std::array<std::array<Elem, 256>, 256> full;
  std::array<NibbleTables, 256> nib;
  std::array<std::once_flag, 256> once;

  void build(Elem c) {
    call_once(once[c], [this, c] {
      auto& row = full[c];
      for (unsigned x = 0; x < 256; ++x) {
        row[x] = mul(c, static_cast<Elem>(x));
      }
      for (unsigned x = 0; x < 16; ++x) {
        nib[c].lo[x] = row[x];
        nib[c].hi[x] = row[x << 4];
      }
    });
  }
};

CoeffTables& coeff_tables() {
  static CoeffTables t;
  return t;
}

// Only the SIMD kernels read these; a target with neither x86 nor NEON has none.
[[maybe_unused]] const NibbleTables& nibble_tables(Elem c) {
  auto& t = coeff_tables();
  t.build(c);
  return t.nib[c];
}

// ---- scalar kernels ----

void mul_add_row_scalar(Elem* out, const Elem* in, Elem c, std::size_t n) {
  const auto& t = detail::tables();
  const std::uint16_t lc = t.log_[c];
  for (std::size_t i = 0; i < n; ++i) {
    const Elem x = in[i];
    if (x != 0) {
      out[i] ^= t.exp_[lc + t.log_[x]];
    }
  }
}

// ---- per-coefficient full-table kernels, 8x unrolled ----

void mul_add_row_table(Elem* out, const Elem* in, Elem c, std::size_t n) {
  const Elem* t = mul_table(c);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    out[i + 0] ^= t[in[i + 0]];
    out[i + 1] ^= t[in[i + 1]];
    out[i + 2] ^= t[in[i + 2]];
    out[i + 3] ^= t[in[i + 3]];
    out[i + 4] ^= t[in[i + 4]];
    out[i + 5] ^= t[in[i + 5]];
    out[i + 6] ^= t[in[i + 6]];
    out[i + 7] ^= t[in[i + 7]];
  }
  for (; i < n; ++i) out[i] ^= t[in[i]];
}

// ---- SIMD split-nibble kernels ----

#if defined(MOBIWEB_GF_X86)

bool simd_supported() { return __builtin_cpu_supports("ssse3") != 0; }

__attribute__((target("ssse3"))) void mul_add_row_simd(Elem* out, const Elem* in,
                                                       Elem c, std::size_t n) {
  const NibbleTables& t = nibble_tables(c);
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    const __m128i pl = _mm_shuffle_epi8(lo, _mm_and_si128(x, mask));
    const __m128i ph =
        _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(x, 4), mask));
    const __m128i prod = _mm_xor_si128(pl, ph);
    __m128i* o = reinterpret_cast<__m128i*>(out + i);
    _mm_storeu_si128(o, _mm_xor_si128(_mm_loadu_si128(o), prod));
  }
  for (; i < n; ++i) {
    const Elem x = in[i];
    out[i] ^= static_cast<Elem>(t.lo[x & 0x0f] ^ t.hi[x >> 4]);
  }
}

#elif defined(MOBIWEB_GF_NEON)

bool simd_supported() { return true; }  // NEON is baseline on aarch64

void mul_add_row_simd(Elem* out, const Elem* in, Elem c, std::size_t n) {
  const NibbleTables& t = nibble_tables(c);
  const uint8x16_t lo = vld1q_u8(t.lo);
  const uint8x16_t hi = vld1q_u8(t.hi);
  const uint8x16_t mask = vdupq_n_u8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t x = vld1q_u8(in + i);
    const uint8x16_t pl = vqtbl1q_u8(lo, vandq_u8(x, mask));
    const uint8x16_t ph = vqtbl1q_u8(hi, vshrq_n_u8(x, 4));
    vst1q_u8(out + i, veorq_u8(vld1q_u8(out + i), veorq_u8(pl, ph)));
  }
  for (; i < n; ++i) {
    const Elem x = in[i];
    out[i] ^= static_cast<Elem>(t.lo[x & 0x0f] ^ t.hi[x >> 4]);
  }
}

#else

bool simd_supported() { return false; }

void mul_add_row_simd(Elem* out, const Elem* in, Elem c, std::size_t n) {
  mul_add_row_table(out, in, c, n);
}

#endif

// ---- fused AVX2 dot product (kSimd's dot_rows) ----

#if defined(MOBIWEB_GF_X86)

bool avx2_supported() {
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
}

// c * x for 32 bytes: the split-nibble lookup at AVX2 width. vpshufb looks up
// within each 128-bit lane, so lo and hi hold the 16-entry tables twice.
__attribute__((target("avx2"))) inline __m256i mul_avx2(__m256i x, __m256i lo,
                                                        __m256i hi, __m256i mask) {
  return _mm256_xor_si256(
      _mm256_shuffle_epi8(lo, _mm256_and_si256(x, mask)),
      _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(x, 4), mask)));
}

// dot_rows over whole 64-byte blocks: each block of dst accumulates in two
// registers across every source and is stored once. `nib` holds the built
// tables of every coefficient. Returns the bytes done.
__attribute__((target("avx2"))) std::size_t dot_rows_avx2(
    Elem* dst, std::span<const Elem* const> srcs, std::span<const Elem> coeffs,
    std::size_t n, const NibbleTables* nib) {
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    for (std::size_t j = 0; j < srcs.size(); ++j) {
      const NibbleTables& t = nib[coeffs[j]];
      const __m256i lo = _mm256_broadcastsi128_si256(
          _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
      const __m256i hi = _mm256_broadcastsi128_si256(
          _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
      const Elem* s = srcs[j] + i;
      const __m256i x0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s));
      const __m256i x1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 32));
      acc0 = _mm256_xor_si256(acc0, mul_avx2(x0, lo, hi, mask));
      acc1 = _mm256_xor_si256(acc1, mul_avx2(x1, lo, hi, mask));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), acc1);
  }
  return i;
}

// The register-resident part of kSimd's dot_rows; the rest of the row goes
// through the 16-byte mul_add_row_simd body.
std::size_t dot_rows_wide(Elem* dst, std::span<const Elem* const> srcs,
                          std::span<const Elem> coeffs, std::size_t n) {
  if (n < 64 || !avx2_supported()) return 0;
  CoeffTables& t = coeff_tables();
  for (const Elem c : coeffs) t.build(c);
  return dot_rows_avx2(dst, srcs, coeffs, n, t.nib.data());
}

#else

std::size_t dot_rows_wide(Elem*, std::span<const Elem* const>, std::span<const Elem>,
                          std::size_t) {
  return 0;
}

#endif

// ---- kernel selection ----

// The process-wide kernel, initialised from MOBIWEB_GF_KERNEL. A set but
// unknown or unavailable name is a configuration error: falling back to kAuto
// would let a typo pass a scalar-vs-simd comparison vacuously. The error is
// recorded here and thrown by every use; the initialiser itself never throws,
// so threads racing on first use never wait on an aborted static
// initialisation (which hangs some sanitizer runtimes).
struct KernelState {
  std::atomic<Kernel> kernel{Kernel::kAuto};
  std::string error;  // empty when MOBIWEB_GF_KERNEL is unset or usable

  KernelState() {
    const char* v = std::getenv("MOBIWEB_GF_KERNEL");
    if (v == nullptr || v[0] == '\0') return;
    const std::optional<Kernel> k = parse_kernel_name(v);
    if (!k.has_value()) {
      error = std::string("MOBIWEB_GF_KERNEL: unknown kernel '") + v + "'";
    } else if (!kernel_available(*k)) {
      error = std::string("MOBIWEB_GF_KERNEL: kernel '") + v +
              "' not supported on this CPU";
    } else {
      kernel.store(*k, std::memory_order_relaxed);
    }
  }
};

KernelState& kernel_state() {
  static KernelState state;
  MOBIWEB_CHECK_MSG(state.error.empty(), state.error);
  return state;
}

}  // namespace

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kScalar: return "scalar";
    case Kernel::kMulTable: return "multable";
    case Kernel::kSimd: return "simd";
    case Kernel::kAuto: return "auto";
  }
  return "unknown";
}

std::optional<Kernel> parse_kernel_name(std::string_view name) {
  for (Kernel k : {Kernel::kScalar, Kernel::kMulTable, Kernel::kSimd, Kernel::kAuto}) {
    if (name == kernel_name(k)) return k;
  }
  return std::nullopt;
}

bool kernel_available(Kernel k) {
  return k != Kernel::kSimd || simd_supported();
}

Kernel resolve_kernel(Kernel k) {
  if (k != Kernel::kAuto) return k;
  return simd_supported() ? Kernel::kSimd : Kernel::kMulTable;
}

Kernel active_kernel() { return kernel_state().kernel.load(std::memory_order_relaxed); }

void set_kernel(Kernel k) {
  MOBIWEB_CHECK_MSG(kernel_available(k), "set_kernel: kernel not supported on this CPU");
  kernel_state().kernel.store(k, std::memory_order_relaxed);
}

const Elem* mul_table(Elem c) {
  auto& t = coeff_tables();
  t.build(c);
  return t.full[c].data();
}

namespace {

// mul_add_row without the profiler scope, shared with dot_rows.
void add_row(Elem* out, const Elem* in, Elem c, std::size_t n, Kernel k) {
  if (c == 0 || n == 0) return;
  if (c == 1) {
    // Identity coefficient — common in systematic decodes where clear-text
    // packets map straight through. Plain xor in every kernel.
    for (std::size_t i = 0; i < n; ++i) out[i] ^= in[i];
    return;
  }
  switch (resolve_kernel(k)) {
    case Kernel::kScalar: mul_add_row_scalar(out, in, c, n); break;
    case Kernel::kMulTable: mul_add_row_table(out, in, c, n); break;
    default: mul_add_row_simd(out, in, c, n); break;
  }
}

bool overlaps(const Elem* a, const Elem* b, std::size_t n) {
  const auto x = reinterpret_cast<std::uintptr_t>(a);
  const auto y = reinterpret_cast<std::uintptr_t>(b);
  return x < y + n && y < x + n;
}

}  // namespace

void mul_add_row(Elem* out, const Elem* in, Elem c, std::size_t n, Kernel k) {
  // The profiler's detached cost here is one atomic load + branch per row —
  // the same budget as the nullptr trace sinks. Attached, leaf scopes this
  // short are dominated by the two clock reads; the table still ranks the
  // row kernels as the hot spot correctly, just with inflated self time.
  MOBIWEB_PROFILE_SCOPE("gf.mul_add_row");
  add_row(out, in, c, n, k);
}

void dot_rows(Elem* dst, std::span<const Elem* const> srcs,
              std::span<const Elem> coeffs, std::size_t n, Kernel k) {
  MOBIWEB_CHECK_MSG(srcs.size() == coeffs.size(),
                    "dot_rows: one coefficient per source row");
  if (n == 0) return;
  for (const Elem* s : srcs) {
    MOBIWEB_CHECK_MSG(!overlaps(dst, s, n), "dot_rows: dst overlaps a source row");
  }
  // kSimd does what it can in registers; every kernel then zeroes the rest of
  // dst and adds one source row at a time.
  const Kernel r = resolve_kernel(k);
  const std::size_t done = r == Kernel::kSimd ? dot_rows_wide(dst, srcs, coeffs, n) : 0;
  std::memset(dst + done, 0, n - done);
  for (std::size_t j = 0; j < srcs.size(); ++j) {
    add_row(dst + done, srcs[j] + done, coeffs[j], n - done, r);
  }
}

void mul_add_row(Elem* out, const Elem* in, Elem c, std::size_t n) {
  mul_add_row(out, in, c, n, active_kernel());
}

void dot_rows(Elem* dst, std::span<const Elem* const> srcs,
              std::span<const Elem> coeffs, std::size_t n) {
  dot_rows(dst, srcs, coeffs, n, active_kernel());
}

}  // namespace mobiweb::gf
