// The dense normal-equations loops the interior-point LP solver ran before
// its profile factor, kept verbatim as the bitwise reference for
// linalg::ProfileCholesky: the full m×m assembly of A·diag(theta)·A^T + reg·I
// over column pairs, the column-oriented Cholesky and its in-place forward
// and back substitution. Plus the helpers that compare the two bit for bit.
#pragma once

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/dense_matrix.h"
#include "linalg/profile_cholesky.h"

namespace eca::linalg::testing {

// Compressed-column matrix in the layout normal_envelope() and
// ProfileCholesky::assemble_normal() take.
struct Csc {
  std::size_t rows = 0;
  std::vector<std::size_t> col_start{0};
  std::vector<std::size_t> row_index;
  Vec value;

  void add_column(const std::vector<std::pair<std::size_t, double>>& entries) {
    for (const auto& [r, v] : entries) {
      row_index.push_back(r);
      value.push_back(v);
    }
    col_start.push_back(row_index.size());
  }
  [[nodiscard]] std::size_t cols() const { return col_start.size() - 1; }
};

inline DenseMatrix dense_normal(const Csc& a, const Vec& theta, double reg) {
  DenseMatrix normal(a.rows, a.rows);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const double t = theta[j];
    for (std::size_t p = a.col_start[j]; p < a.col_start[j + 1]; ++p) {
      for (std::size_t q = p; q < a.col_start[j + 1]; ++q) {
        const double val = t * a.value[p] * a.value[q];
        normal(a.row_index[p], a.row_index[q]) += val;
        if (p != q) normal(a.row_index[q], a.row_index[p]) += val;
      }
    }
  }
  for (std::size_t r = 0; r < a.rows; ++r) normal(r, r) += reg;
  return normal;
}

inline bool dense_cholesky(const DenseMatrix& a, DenseMatrix& l) {
  const std::size_t n = a.rows();
  l.resize(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
      l(i, j) = v / ljj;
    }
  }
  return true;
}

inline void dense_cholesky_solve_in_place(const DenseMatrix& l, Vec& bx) {
  const std::size_t n = l.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double v = bx[i];
    for (std::size_t k = 0; k < i; ++k) v -= l(i, k) * bx[k];
    bx[i] = v / l(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double v = bx[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l(k, ii) * bx[k];
    bx[ii] = v / l(ii, ii);
  }
}

inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Every envelope entry of `profile` equals the dense entry bit for bit, and
// every dense lower-triangle entry outside the envelope is +0.0.
inline void expect_lower_bitwise_equal(const ProfileCholesky& profile,
                                       const DenseMatrix& dense) {
  ASSERT_EQ(profile.dim(), dense.rows());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t k = 0; k <= i; ++k) {
      const double expected = dense(i, k);
      const double got = k >= profile.first(i) ? profile(i, k) : 0.0;
      if (!same_bits(got, expected)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

inline void expect_bitwise_equal(const Vec& got, const Vec& expected) {
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                        got.size() * sizeof(double)),
            0);
}

// Assembles, factors and solves the normal matrix of `a` under `theta`
// both ways and requires bitwise agreement at every step.
inline void expect_normal_solve_matches_dense(const Csc& a, const Vec& theta,
                                              double reg, const Vec& rhs) {
  std::vector<std::size_t> first;
  normal_envelope(a.rows, a.col_start, a.row_index, first);
  ProfileCholesky profile;
  profile.set_envelope(first);
  profile.assemble_normal(a.col_start, a.row_index, a.value, theta, reg);
  const DenseMatrix dense = dense_normal(a, theta, reg);
  expect_lower_bitwise_equal(profile, dense);

  DenseMatrix l;
  const bool dense_ok = dense_cholesky(dense, l);
  ASSERT_EQ(profile.factor(), dense_ok);
  if (!dense_ok) return;
  expect_lower_bitwise_equal(profile, l);

  Vec expected = rhs;
  dense_cholesky_solve_in_place(l, expected);
  Vec got = rhs;
  profile.solve_in_place(got);
  expect_bitwise_equal(got, expected);
}

}  // namespace eca::linalg::testing
