// Dense-matrix oracle over GF(2^8) for the coding tests and fuzzers.
//
// The library never builds or inverts a matrix: the systematic generator and
// the decode block inverse come from closed forms (src/ida/ida.hpp). This
// header computes the same objects the way paper §4.1 describes them, so the
// tests can compare the two: a Vandermonde matrix over the nodes x_i = i + 1,
// right-multiplied by the inverse of its top m x m block, both by Gauss-Jordan
// elimination. Row operations go through gf::mul_add_row on the auto kernel,
// which the GfKernels tests and fuzz_gf pin against scalar field arithmetic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "gf256/gf256.hpp"
#include "util/check.hpp"

namespace mobiweb::testing {

// a^e with e >= 0 (0^0 defined as 1). The exponent is reduced first: the
// multiplicative group has order 255, and log(a) * e overflows 32 bits for e
// beyond ~16.9M.
inline gf::Elem pow(gf::Elem a, unsigned e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const auto& t = gf::detail::tables();
  return t.exp_[(static_cast<unsigned>(t.log_[a]) * (e % 255u)) % 255u];
}

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }

  gf::Elem& at(std::size_t r, std::size_t c) {
    MOBIWEB_CHECK_MSG(r < rows_ && c < cols_, "Matrix::at out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] gf::Elem at(std::size_t r, std::size_t c) const {
    MOBIWEB_CHECK_MSG(r < rows_ && c < cols_, "Matrix::at out of range");
    return data_[r * cols_ + c];
  }

  gf::Elem* row(std::size_t r) { return data_.data() + r * cols_; }
  [[nodiscard]] const gf::Elem* row(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
    return m;
  }

  // this * other; a dimension mismatch throws ContractViolation.
  [[nodiscard]] Matrix multiply(const Matrix& other) const {
    MOBIWEB_CHECK_MSG(cols_ == other.rows_, "Matrix::multiply dimension mismatch");
    Matrix out(rows_, other.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t k = 0; k < cols_; ++k) {
        add_row(out.row(i), other.row(k), at(i, k), other.cols_);
      }
    }
    return out;
  }

  [[nodiscard]] Matrix transpose() const {
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
    }
    return out;
  }

  // Gauss-Jordan elimination on the rows until the left rows() x rows()
  // block is the identity. Returns false if that block is singular.
  // Requires cols() >= rows().
  bool reduce_left_block() {
    MOBIWEB_CHECK_MSG(cols_ >= rows_, "Matrix::reduce_left_block needs cols >= rows");
    for (std::size_t col = 0; col < rows_; ++col) {
      std::size_t pivot = col;
      while (pivot < rows_ && at(pivot, col) == 0) ++pivot;
      if (pivot == rows_) return false;
      std::swap_ranges(row(pivot), row(pivot) + cols_, row(col));
      const gf::Elem scale = gf::inv(at(col, col));
      for (std::size_t c = 0; c < cols_; ++c) row(col)[c] = gf::mul(row(col)[c], scale);
      for (std::size_t r = 0; r < rows_; ++r) {
        if (r != col) add_row(row(r), row(col), at(r, col), cols_);
      }
    }
    return true;
  }

  // Gauss-Jordan inverse, by reducing [A | I] to [I | A^-1]. Throws
  // ContractViolation if not square; returns an empty Matrix if singular.
  [[nodiscard]] Matrix inverse() const {
    MOBIWEB_CHECK_MSG(rows_ == cols_, "Matrix::inverse requires a square matrix");
    const std::size_t n = rows_;
    Matrix aug(n, 2 * n);
    for (std::size_t r = 0; r < n; ++r) {
      std::copy(row(r), row(r) + n, aug.row(r));
      aug.at(r, n + r) = 1;
    }
    if (!aug.reduce_left_block()) return Matrix{};
    Matrix inv(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      std::copy(aug.row(r) + n, aug.row(r) + 2 * n, inv.row(r));
    }
    return inv;
  }

  // The sub-matrix formed by the given row indices, in order.
  [[nodiscard]] Matrix select_rows(const std::vector<std::size_t>& indices) const {
    Matrix out(indices.size(), cols_);
    for (std::size_t i = 0; i < indices.size(); ++i) {
      MOBIWEB_CHECK_MSG(indices[i] < rows_, "Matrix::select_rows index out of range");
      std::copy(row(indices[i]), row(indices[i]) + cols_, out.row(i));
    }
    return out;
  }

  [[nodiscard]] bool is_identity() const { return *this == identity(rows_); }

  [[nodiscard]] bool operator==(const Matrix& other) const = default;

 private:
  // out += c * in. Always the auto kernel: a test that forces another kernel
  // through MOBIWEB_GF_KERNEL checks the library against an oracle that does
  // not share that kernel.
  static void add_row(gf::Elem* out, const gf::Elem* in, gf::Elem c, std::size_t n) {
    gf::mul_add_row(out, in, c, n, gf::Kernel::kAuto);
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<gf::Elem> data_;
};

// n x m Vandermonde matrix: row i = [1, x_i, x_i^2, ..., x_i^(m-1)] with
// x_i = i + 1, so every m-row subset is invertible. Requires 1 <= n <= 255.
inline Matrix vandermonde(std::size_t n, std::size_t m) {
  MOBIWEB_CHECK_MSG(n >= 1 && m >= 1, "vandermonde: dimensions must be positive");
  MOBIWEB_CHECK_MSG(n <= 255, "vandermonde: at most 255 rows over GF(2^8)");
  Matrix v(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      v.at(i, j) = pow(static_cast<gf::Elem>(i + 1), static_cast<unsigned>(j));
    }
  }
  return v;
}

// The systematic generator V * V_top^-1: its first m rows are the identity
// and any m of its rows stay invertible. Requires n >= m. Built as paper §4.1
// says, by elementary transformations that turn V's top m x m block into the
// identity: column operations on V are row operations on V^T, so
// Gauss-Jordan on the m x n matrix V^T leaves (V * V_top^-1)^T.
inline Matrix systematic_vandermonde(std::size_t n, std::size_t m) {
  MOBIWEB_CHECK_MSG(n >= m, "systematic_vandermonde: need n >= m");
  Matrix vt = vandermonde(n, m).transpose();
  MOBIWEB_CHECK_MSG(vt.reduce_left_block(), "systematic_vandermonde: top block singular");
  return vt.transpose();
}

}  // namespace mobiweb::testing
