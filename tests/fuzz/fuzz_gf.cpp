// Fuzz target: differential check of the GF(2^8) row kernels. All kernel
// implementations (scalar log/exp, per-coefficient table, SIMD split-nibble
// pshufb/tbl) are documented to produce byte-identical output; the
// scalar kernel is the reference, for mul_add_row and the fused dot_rows.
// Also exercises the field's algebraic identities on arbitrary elements, and
// the coding oracle's exponentiation.
#include <cstdint>
#include <vector>

#include "fuzz_input.hpp"
#include "gf256/gf256.hpp"
#include "gf_oracle.hpp"

namespace gf = mobiweb::gf;
using mobiweb::fuzz::FuzzInput;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size > (1u << 16)) return 0;
  FuzzInput in(data, size);

  const auto c = static_cast<gf::Elem>(in.take_byte());
  const auto a = static_cast<gf::Elem>(in.take_byte());
  const auto b = static_cast<gf::Elem>(in.take_byte());

  // Field identities.
  MOBIWEB_FUZZ_ASSERT(gf::mul(a, b) == gf::mul(b, a), "mul not commutative");
  MOBIWEB_FUZZ_ASSERT(gf::add(a, b) == gf::sub(a, b), "add/sub must coincide");
  MOBIWEB_FUZZ_ASSERT(gf::mul(a, 1) == a, "1 is not the multiplicative unit");
  if (a != 0) {
    MOBIWEB_FUZZ_ASSERT(gf::mul(a, gf::inv(a)) == 1, "a * inv(a) != 1");
  }
  if (b != 0) {
    MOBIWEB_FUZZ_ASSERT(gf::div(gf::mul(a, b), b) == a, "(a*b)/b != a");
  }
  // The oracle's pow (it builds the reference Vandermonde matrix) against
  // repeated multiplication, including exponents past 255 where the log-sum
  // wraps mod 255.
  const unsigned e = static_cast<unsigned>(in.take_in_range(0, 600));
  gf::Elem expect = 1;
  for (unsigned i = 0; i < e; ++i) expect = gf::mul(expect, a);
  MOBIWEB_FUZZ_ASSERT(mobiweb::testing::pow(a, e) == expect,
                      "pow differs from repeated mul");

  // Row-kernel differential: every available kernel vs the scalar reference,
  // on an arbitrary row at an arbitrary (often unaligned) length.
  const std::size_t row_len = in.take_in_range(0, 300);
  const std::vector<std::uint8_t> row = in.take_bytes(row_len);
  const std::vector<std::uint8_t> seed = in.take_bytes(row_len);

  std::vector<std::uint8_t> ref_add = seed;
  gf::mul_add_row(ref_add.data(), row.data(), c, row_len, gf::Kernel::kScalar);

  for (const gf::Kernel k : {gf::Kernel::kMulTable, gf::Kernel::kSimd, gf::Kernel::kAuto}) {
    if (!gf::kernel_available(k)) continue;
    std::vector<std::uint8_t> out_add = seed;
    gf::mul_add_row(out_add.data(), row.data(), c, row_len, k);
    MOBIWEB_FUZZ_ASSERT(out_add == ref_add, "mul_add_row kernel divergence");
  }

  // dot_rows differential: up to 8 carved sources and coefficients, every
  // kernel against zero-then-scalar-mul_add_row.
  const std::size_t sources = in.take_in_range(0, 8);
  const std::size_t dot_len = in.take_in_range(0, 300);
  std::vector<std::vector<std::uint8_t>> store;
  std::vector<const gf::Elem*> srcs;
  std::vector<gf::Elem> coeffs;
  for (std::size_t j = 0; j < sources; ++j) {
    coeffs.push_back(in.take_byte());
    store.push_back(in.take_bytes(dot_len));
  }
  for (const auto& s : store) srcs.push_back(s.data());
  std::vector<std::uint8_t> ref_dot(dot_len, 0);
  for (std::size_t j = 0; j < sources; ++j) {
    gf::mul_add_row(ref_dot.data(), srcs[j], coeffs[j], dot_len, gf::Kernel::kScalar);
  }
  for (const gf::Kernel k : {gf::Kernel::kScalar, gf::Kernel::kMulTable, gf::Kernel::kSimd,
                             gf::Kernel::kAuto}) {
    if (!gf::kernel_available(k)) continue;
    std::vector<std::uint8_t> out_dot(dot_len, 0xa5);
    gf::dot_rows(out_dot.data(), srcs, coeffs, dot_len, k);
    MOBIWEB_FUZZ_ASSERT(out_dot == ref_dot, "dot_rows kernel divergence");
  }
  return 0;
}
