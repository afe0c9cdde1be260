// GF(2^8) arithmetic, plus the dense-matrix oracle the coding tests compare
// the closed-form generator against (tests/fuzz/gf_oracle.hpp).
#include <gtest/gtest.h>

#include "fuzz/gf_oracle.hpp"
#include "gf256/gf256.hpp"
#include "util/rng.hpp"

namespace gf = mobiweb::gf;
namespace oracle = mobiweb::testing;
using mobiweb::ContractViolation;
using mobiweb::Rng;

TEST(Gf256, AddIsXor) {
  EXPECT_EQ(gf::add(0x00, 0x00), 0x00);
  EXPECT_EQ(gf::add(0xff, 0xff), 0x00);
  EXPECT_EQ(gf::add(0x53, 0xca), 0x53 ^ 0xca);
  EXPECT_EQ(gf::sub(0x53, 0xca), gf::add(0x53, 0xca));
}

TEST(Gf256, MulBasics) {
  EXPECT_EQ(gf::mul(0, 0x47), 0);
  EXPECT_EQ(gf::mul(0x47, 0), 0);
  EXPECT_EQ(gf::mul(1, 0x47), 0x47);
  EXPECT_EQ(gf::mul(0x47, 1), 0x47);
}

TEST(Gf256, MulKnownValue) {
  // 0x02 is the generator of the field with polynomial 0x11d:
  // 0x80 * 2 = 0x100 -> xor 0x11d -> 0x1d.
  EXPECT_EQ(gf::mul(0x80, 0x02), 0x1d);
  EXPECT_EQ(gf::mul(0x02, 0x80), 0x1d);
}

TEST(Gf256, MulCommutative) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<gf::Elem>(rng.next_below(256));
    const auto b = static_cast<gf::Elem>(rng.next_below(256));
    EXPECT_EQ(gf::mul(a, b), gf::mul(b, a));
  }
}

TEST(Gf256, MulAssociative) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<gf::Elem>(rng.next_below(256));
    const auto b = static_cast<gf::Elem>(rng.next_below(256));
    const auto c = static_cast<gf::Elem>(rng.next_below(256));
    EXPECT_EQ(gf::mul(gf::mul(a, b), c), gf::mul(a, gf::mul(b, c)));
  }
}

TEST(Gf256, MulDistributesOverAdd) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<gf::Elem>(rng.next_below(256));
    const auto b = static_cast<gf::Elem>(rng.next_below(256));
    const auto c = static_cast<gf::Elem>(rng.next_below(256));
    EXPECT_EQ(gf::mul(a, gf::add(b, c)), gf::add(gf::mul(a, b), gf::mul(a, c)));
  }
}

TEST(Gf256, InverseRoundTrip) {
  for (int a = 1; a < 256; ++a) {
    const auto e = static_cast<gf::Elem>(a);
    EXPECT_EQ(gf::mul(e, gf::inv(e)), 1) << "a=" << a;
  }
}

TEST(Gf256, InverseOfZeroThrows) {
  EXPECT_THROW(gf::inv(0), ContractViolation);
  EXPECT_THROW(gf::div(1, 0), ContractViolation);
}

TEST(Gf256, DivMatchesMulByInverse) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<gf::Elem>(rng.next_below(256));
    const auto b = static_cast<gf::Elem>(1 + rng.next_below(255));
    EXPECT_EQ(gf::div(a, b), gf::mul(a, gf::inv(b)));
  }
}

TEST(Gf256, PowMatchesRepeatedMul) {
  for (int a = 0; a < 256; a += 7) {
    gf::Elem acc = 1;
    for (unsigned e = 0; e < 12; ++e) {
      EXPECT_EQ(oracle::pow(static_cast<gf::Elem>(a), e), acc) << "a=" << a << " e=" << e;
      acc = gf::mul(acc, static_cast<gf::Elem>(a));
    }
  }
}

TEST(Gf256, PowZeroExponentIsOne) {
  EXPECT_EQ(oracle::pow(0, 0), 1);
  EXPECT_EQ(oracle::pow(37, 0), 1);
}

namespace {
// Square-and-multiply oracle: no log tables, no modular exponent reduction,
// so it cannot share the overflow bug pow() once had.
gf::Elem pow_oracle(gf::Elem a, unsigned e) {
  gf::Elem result = 1;
  gf::Elem base = a;
  while (e != 0) {
    if (e & 1u) result = gf::mul(result, base);
    base = gf::mul(base, base);
    e >>= 1;
  }
  return result;
}
}  // namespace

TEST(Gf256, PowLargeExponentsMatchOracle) {
  // Regression: log_[a] * e used to be computed in 32 bits, overflowing for
  // e beyond ~16.9M and silently returning a wrong field element.
  const unsigned exponents[] = {16'900'000u,    16'912'790u,  100'000'000u,
                                2'147'483'647u, 4'000'000'000u, 4'294'967'295u};
  for (unsigned e : exponents) {
    for (int a = 0; a < 256; a += 5) {
      const auto elem = static_cast<gf::Elem>(a);
      EXPECT_EQ(oracle::pow(elem, e), pow_oracle(elem, e)) << "a=" << a << " e=" << e;
    }
  }
}

TEST(Gf256, PowRandomExponentsMatchOracle) {
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<gf::Elem>(rng.next_below(256));
    const auto e = static_cast<unsigned>(rng.next_u64());
    EXPECT_EQ(oracle::pow(a, e), pow_oracle(a, e)) << "a=" << int(a) << " e=" << e;
  }
}

TEST(Gf256, MulAddRow) {
  const std::vector<gf::Elem> in = {1, 2, 3, 0, 255};
  std::vector<gf::Elem> out = {10, 20, 30, 40, 50};
  const std::vector<gf::Elem> expect = {
      gf::add(10, gf::mul(7, 1)), gf::add(20, gf::mul(7, 2)),
      gf::add(30, gf::mul(7, 3)), gf::add(40, gf::mul(7, 0)),
      gf::add(50, gf::mul(7, 255))};
  gf::mul_add_row(out.data(), in.data(), 7, in.size());
  EXPECT_EQ(out, expect);
}

TEST(Gf256, MulAddRowZeroCoefficientIsNoop) {
  const std::vector<gf::Elem> in = {9, 9, 9};
  std::vector<gf::Elem> out = {1, 2, 3};
  gf::mul_add_row(out.data(), in.data(), 0, in.size());
  EXPECT_EQ(out, (std::vector<gf::Elem>{1, 2, 3}));
}

TEST(Matrix, IdentityMultiplication) {
  oracle::Matrix id = oracle::Matrix::identity(5);
  EXPECT_TRUE(id.is_identity());
  oracle::Matrix m(5, 5);
  Rng rng(5);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      m.at(r, c) = static_cast<gf::Elem>(rng.next_below(256));
    }
  }
  EXPECT_EQ(id.multiply(m), m);
  EXPECT_EQ(m.multiply(id), m);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
  oracle::Matrix a(2, 3);
  oracle::Matrix b(2, 3);
  EXPECT_THROW(a.multiply(b), ContractViolation);
}

TEST(Matrix, InverseRoundTrip) {
  Rng rng(6);
  for (std::size_t n : {1u, 2u, 5u, 16u}) {
    // Random matrices over GF(256) are invertible with high probability;
    // retry until one is.
    for (;;) {
      oracle::Matrix m(n, n);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          m.at(r, c) = static_cast<gf::Elem>(rng.next_below(256));
        }
      }
      oracle::Matrix inv = m.inverse();
      if (inv.empty()) continue;
      EXPECT_TRUE(m.multiply(inv).is_identity()) << "n=" << n;
      EXPECT_TRUE(inv.multiply(m).is_identity()) << "n=" << n;
      break;
    }
  }
}

TEST(Matrix, SingularReturnsEmpty) {
  oracle::Matrix m(2, 2);  // all zeros
  EXPECT_TRUE(m.inverse().empty());

  oracle::Matrix dup(2, 2);  // duplicate rows
  dup.at(0, 0) = 3;
  dup.at(0, 1) = 5;
  dup.at(1, 0) = 3;
  dup.at(1, 1) = 5;
  EXPECT_TRUE(dup.inverse().empty());
}

TEST(Matrix, InverseRequiresSquare) {
  oracle::Matrix m(2, 3);
  EXPECT_THROW(m.inverse(), ContractViolation);
}

TEST(Matrix, SelectRows) {
  oracle::Matrix m(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    m.at(r, 0) = static_cast<gf::Elem>(r + 1);
    m.at(r, 1) = static_cast<gf::Elem>(10 * (r + 1));
  }
  oracle::Matrix s = m.select_rows({3, 1});
  ASSERT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.at(0, 0), 4);
  EXPECT_EQ(s.at(0, 1), 40);
  EXPECT_EQ(s.at(1, 0), 2);
  EXPECT_EQ(s.at(1, 1), 20);
}

TEST(Vandermonde, ShapeAndFirstColumn) {
  oracle::Matrix v = oracle::vandermonde(6, 3);
  EXPECT_EQ(v.rows(), 6u);
  EXPECT_EQ(v.cols(), 3u);
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(v.at(r, 0), 1);  // x^0
    EXPECT_EQ(v.at(r, 1), static_cast<gf::Elem>(r + 1));  // x^1
  }
}

TEST(Vandermonde, AnySquareRowSubsetInvertible) {
  oracle::Matrix v = oracle::vandermonde(10, 4);
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    // Draw 4 distinct row indices.
    std::vector<std::size_t> rows;
    while (rows.size() < 4) {
      const std::size_t r = rng.next_below(10);
      bool dup = false;
      for (std::size_t x : rows) dup |= (x == r);
      if (!dup) rows.push_back(r);
    }
    EXPECT_FALSE(v.select_rows(rows).inverse().empty());
  }
}

TEST(Vandermonde, SystematicTopIsIdentity) {
  for (auto [n, m] : {std::pair<std::size_t, std::size_t>{8, 4},
                      {255, 100}, {5, 5}, {60, 40}}) {
    oracle::Matrix g = oracle::systematic_vandermonde(n, m);
    std::vector<std::size_t> top(m);
    for (std::size_t i = 0; i < m; ++i) top[i] = i;
    EXPECT_TRUE(g.select_rows(top).is_identity()) << "n=" << n << " m=" << m;
  }
}

TEST(Vandermonde, SystematicAnySubsetStillInvertible) {
  oracle::Matrix g = oracle::systematic_vandermonde(12, 5);
  Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::size_t> rows;
    while (rows.size() < 5) {
      const std::size_t r = rng.next_below(12);
      bool dup = false;
      for (std::size_t x : rows) dup |= (x == r);
      if (!dup) rows.push_back(r);
    }
    EXPECT_FALSE(g.select_rows(rows).inverse().empty());
  }
}

TEST(Vandermonde, RowLimitEnforced) {
  EXPECT_THROW(oracle::vandermonde(256, 4), ContractViolation);
  EXPECT_NO_THROW(oracle::vandermonde(255, 4));
}

namespace {
// Independent reference multiplication: carry-less (polynomial) multiply
// followed by reduction mod x^8 + x^4 + x^3 + x^2 + 1 — no tables involved.
gf::Elem slow_mul(gf::Elem a, gf::Elem b) {
  unsigned product = 0;
  for (int bit = 0; bit < 8; ++bit) {
    if (b & (1u << bit)) product ^= static_cast<unsigned>(a) << bit;
  }
  for (int bit = 14; bit >= 8; --bit) {
    if (product & (1u << bit)) product ^= 0x11du << (bit - 8);
  }
  return static_cast<gf::Elem>(product);
}
}  // namespace

TEST(Gf256, TableMulMatchesBitwiseReferenceExhaustively) {
  // All 65536 pairs against the table-free implementation.
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(gf::mul(static_cast<gf::Elem>(a), static_cast<gf::Elem>(b)),
                slow_mul(static_cast<gf::Elem>(a), static_cast<gf::Elem>(b)))
          << a << " * " << b;
    }
  }
}
