// Arithmetic over GF(2^8) = GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1).
//
// This is the finite field underlying the fault-tolerant encoding (paper §4.1,
// built on Rabin's Information Dispersal Algorithm). Multiplication and
// division use log/antilog tables generated at static-init time from the
// primitive element 0x02 of the AES-like polynomial 0x11d.
//
// The row kernels come in several implementations selected at runtime via
// `Kernel`: the original scalar log/exp loop, a per-coefficient 256-entry
// multiplication table, and a SIMD split-nibble (two 16-entry tables) form
// using pshufb (SSSE3) or tbl (NEON) where the hardware supports it. All
// kernels produce byte-identical output.
//
// `dot_rows` (dst = sum_j c_j * src_j) is the inner loop of every IDA encode
// and decode. The portable kernels zero dst and add one source row at a time;
// kSimd on an AVX2 CPU keeps 64 bytes of dst in registers across all sources
// and stores them once, finishing the row's last < 64 bytes with the 16-byte
// SSSE3 body. `mul_add_row` is the profiled single-row form of the same
// kernels; nothing on the coding path calls it, since the IDA generator and
// its decode inverse have closed forms (ida.hpp) and no matrix is eliminated.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "util/check.hpp"

namespace mobiweb::gf {

using Elem = std::uint8_t;

namespace detail {

struct Tables {
  // exp_[i] = g^i for i in [0, 510) — doubled so mul can skip a mod-255.
  std::array<Elem, 510> exp_{};
  // log_[x] = i such that g^i == x, for x != 0. log_[0] unused.
  std::array<std::uint16_t, 256> log_{};

  Tables() {
    constexpr std::uint16_t kPoly = 0x11d;  // x^8 + x^4 + x^3 + x^2 + 1
    std::uint16_t x = 1;
    for (std::uint16_t i = 0; i < 255; ++i) {
      exp_[i] = static_cast<Elem>(x);
      log_[x] = i;
      x <<= 1;
      if (x & 0x100) x ^= kPoly;
    }
    for (std::uint16_t i = 255; i < 510; ++i) {
      exp_[i] = exp_[i - 255];
    }
  }
};

const Tables& tables();

}  // namespace detail

// Addition and subtraction coincide: bitwise xor.
constexpr Elem add(Elem a, Elem b) { return a ^ b; }
constexpr Elem sub(Elem a, Elem b) { return a ^ b; }

inline Elem mul(Elem a, Elem b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = detail::tables();
  return t.exp_[t.log_[a] + t.log_[b]];
}

// Multiplicative inverse; throws ContractViolation for 0.
inline Elem inv(Elem a) {
  MOBIWEB_CHECK_MSG(a != 0, "gf256: inverse of zero");
  const auto& t = detail::tables();
  return t.exp_[255 - t.log_[a]];
}

inline Elem div(Elem a, Elem b) {
  MOBIWEB_CHECK_MSG(b != 0, "gf256: division by zero");
  if (a == 0) return 0;
  const auto& t = detail::tables();
  return t.exp_[t.log_[a] + 255 - t.log_[b]];
}

// Row-kernel implementations. kAuto resolves to the fastest kernel available
// on this CPU (kSimd where SSSE3/NEON is present, else kMulTable).
enum class Kernel : std::uint8_t {
  kScalar,    // branch-per-byte log/exp lookups (the original seed kernel)
  kMulTable,  // lazily-built 256-entry per-coefficient table, 8x unrolled
  kSimd,      // split-nibble (two 16-entry low/high nibble tables) via
              // pshufb/tbl, AVX2-wide in dot_rows where the CPU has it;
              // requires kernel_available()
  kAuto,
};

// Short stable name: "scalar", "multable", "simd", "auto".
const char* kernel_name(Kernel k);

// Inverse of kernel_name(); nullopt for any other string. Says nothing about
// whether the kernel can run here (see kernel_available).
std::optional<Kernel> parse_kernel_name(std::string_view name);

// True when `k` can execute on this CPU (kSimd needs SSSE3 or NEON; the
// portable kernels and kAuto are always available).
bool kernel_available(Kernel k);

// The concrete kernel `k` dispatches to (resolves kAuto; never returns kAuto).
Kernel resolve_kernel(Kernel k);

// Process-wide kernel used by the row ops below that take no Kernel.
// Initialised from the MOBIWEB_GF_KERNEL environment variable when set (one
// of the kernel_name() strings), else kAuto; a set value that is unknown or
// not available on this CPU throws ContractViolation. set_kernel is
// thread-safe.
Kernel active_kernel();
void set_kernel(Kernel k);

// 256-byte table t with t[x] = c * x, lazily built and cached per coefficient.
const Elem* mul_table(Elem c);

// out[i] ^= c * in[i] over a row of bytes.
void mul_add_row(Elem* out, const Elem* in, Elem c, std::size_t n);

// The same row op with an explicit kernel, so tests and benchmarks can force
// a path. `k` must satisfy kernel_available(k).
void mul_add_row(Elem* out, const Elem* in, Elem c, std::size_t n, Kernel k);

// dst[i] = sum_j coeffs[j] * srcs[j][i] for i < n: the dot product of the
// n-byte rows srcs with coeffs, which holds one coefficient per source (no
// sources zero dst). dst is overwritten, never read, and must not overlap a
// source row; a size mismatch or an overlap throws ContractViolation. Opens no
// profiler scope, so its time is the caller's self time.
void dot_rows(Elem* dst, std::span<const Elem* const> srcs,
              std::span<const Elem> coeffs, std::size_t n);
void dot_rows(Elem* dst, std::span<const Elem* const> srcs,
              std::span<const Elem> coeffs, std::size_t n, Kernel k);

}  // namespace mobiweb::gf
