#include "linalg/dense_matrix.h"

#include <cmath>

namespace eca::linalg {

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vec DenseMatrix::multiply(const Vec& x) const {
  ECA_CHECK(x.size() == cols_, "matvec dimension mismatch");
  Vec out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    out[r] = acc;
  }
  return out;
}

Vec DenseMatrix::multiply_transpose(const Vec& x) const {
  ECA_CHECK(x.size() == rows_, "matvec^T dimension mismatch");
  Vec out(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    const double xr = x[r];
    for (std::size_t c = 0; c < cols_; ++c) out[c] += row[c] * xr;
  }
  return out;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  ECA_CHECK(cols_ == other.rows_, "matmul dimension mismatch");
  DenseMatrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

void DenseMatrix::multiply_into(const DenseMatrix& other,
                                DenseMatrix& out) const {
  ECA_CHECK(cols_ == other.rows_, "matmul dimension mismatch");
  ECA_CHECK(out.rows() == rows_ && out.cols() == other.cols_,
            "matmul output shape mismatch");
  out.set_zero();
  // Cache-blocked i-k-j: a kBlock×kBlock tile of `other` is reused by every
  // row of this operand before the next tile is touched, and the inner
  // j-loop is a contiguous fused multiply-add over the output row.
  constexpr std::size_t kBlock = 64;
  const std::size_t n_cols = other.cols_;
  const double* __restrict a_data = data_.data();
  const double* __restrict b_data = other.data_.data();
  double* __restrict c_data = out.data_.data();
  for (std::size_t kb = 0; kb < cols_; kb += kBlock) {
    const std::size_t ke = kb + kBlock < cols_ ? kb + kBlock : cols_;
    for (std::size_t jb = 0; jb < n_cols; jb += kBlock) {
      const std::size_t je = jb + kBlock < n_cols ? jb + kBlock : n_cols;
      for (std::size_t r = 0; r < rows_; ++r) {
        const double* __restrict arow = a_data + r * cols_;
        double* __restrict crow = c_data + r * n_cols;
        for (std::size_t k = kb; k < ke; ++k) {
          const double a = arow[k];
          if (a == 0.0) continue;
          const double* __restrict brow = b_data + k * n_cols;
          ECA_SIMD
          for (std::size_t j = jb; j < je; ++j) crow[j] += a * brow[j];
        }
      }
    }
  }
}

void DenseMatrix::multiply_into_reference(const DenseMatrix& other,
                                          DenseMatrix& out) const {
  ECA_CHECK(cols_ == other.rows_, "matmul dimension mismatch");
  ECA_CHECK(out.rows() == rows_ && out.cols() == other.cols_,
            "matmul output shape mismatch");
  out.set_zero();
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
}

DenseMatrix DenseMatrix::transpose() const {
  DenseMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

void DenseMatrix::add_scaled(const DenseMatrix& other, double alpha) {
  ECA_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

bool Lu::factor(const DenseMatrix& a) {
  ECA_CHECK(a.rows() == a.cols(), "LU needs a square matrix");
  const std::size_t n = a.rows();
  lu_ = a;
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  ok_ = false;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(lu_(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-14 || !std::isfinite(best)) return false;
    if (pivot != col) {
      std::swap(perm_[pivot], perm_[col]);
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(pivot, c), lu_(col, c));
      }
    }
    const double d = lu_(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_(r, col) / d;
      lu_(r, col) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c) {
        lu_(r, c) -= factor * lu_(col, c);
      }
    }
  }
  ok_ = true;
  return true;
}

Vec Lu::solve(const Vec& b) const {
  ECA_CHECK(ok_, "Lu::solve called before a successful factor()");
  const std::size_t n = lu_.rows();
  ECA_CHECK(b.size() == n);
  Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[perm_[i]];
    for (std::size_t k = 0; k < i; ++k) v -= lu_(i, k) * y[k];
    y[i] = v;
  }
  Vec x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= lu_(ii, k) * x[k];
    x[ii] = v / lu_(ii, ii);
  }
  return x;
}

void Lu::solve_in_place(Vec& bx) {
  ECA_CHECK(ok_, "Lu::solve_in_place called before a successful factor()");
  const std::size_t n = lu_.rows();
  ECA_CHECK(bx.size() == n);
  scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = bx[perm_[i]];
    for (std::size_t k = 0; k < i; ++k) v -= lu_(i, k) * scratch_[k];
    scratch_[i] = v;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double v = scratch_[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= lu_(ii, k) * bx[k];
    bx[ii] = v / lu_(ii, ii);
  }
}

Vec Lu::solve_transpose(const Vec& b) const {
  ECA_CHECK(ok_, "Lu::solve_transpose called before a successful factor()");
  const std::size_t n = lu_.rows();
  ECA_CHECK(b.size() == n);
  // A^T x = b with PA = LU  =>  A^T = U^T L^T P, solve U^T z = b,
  // L^T w = z, then x = P^T w.
  Vec z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= lu_(k, i) * z[k];
    z[i] = v / lu_(i, i);
  }
  Vec w(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = z[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= lu_(k, ii) * w[k];
    w[ii] = v;
  }
  Vec x(n);
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = w[i];
  return x;
}

}  // namespace eca::linalg
