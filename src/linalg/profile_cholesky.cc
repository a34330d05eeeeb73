#include "linalg/profile_cholesky.h"

#include <algorithm>
#include <cmath>

namespace eca::linalg {

void normal_envelope(std::size_t m, std::span<const std::size_t> col_start,
                     std::span<const std::size_t> row_index,
                     std::vector<std::size_t>& first) {
  first.resize(m);
  for (std::size_t r = 0; r < m; ++r) first[r] = r;
  for (std::size_t j = 0; j + 1 < col_start.size(); ++j) {
    const std::size_t begin = col_start[j];
    const std::size_t end = col_start[j + 1];
    std::size_t lowest = m;
    for (std::size_t p = begin; p < end; ++p) {
      lowest = std::min(lowest, row_index[p]);
    }
    for (std::size_t p = begin; p < end; ++p) {
      first[row_index[p]] = std::min(first[row_index[p]], lowest);
    }
  }
}

void ProfileCholesky::set_envelope(std::span<const std::size_t> first) {
  const std::size_t n = first.size();
  first_.assign(first.begin(), first.end());
  offset_.assign(n, 0);
  upper_start_.assign(n + 1, 0);
  std::size_t size = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ECA_CHECK(first_[i] <= i, "profile envelope must satisfy first(i) <= i");
    offset_[i] = size - first_[i];
    size += i - first_[i] + 1;
    for (std::size_t c = first_[i]; c < i; ++c) ++upper_start_[c + 1];
  }
  for (std::size_t c = 0; c < n; ++c) upper_start_[c + 1] += upper_start_[c];
  // Scatter rows in ascending order, using upper_start_[c] as column c's
  // cursor; afterwards each cursor sits at the next column's start, so one
  // shift restores the starts.
  upper_row_.assign(upper_start_[n], 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = first_[i]; c < i; ++c) upper_row_[upper_start_[c]++] = i;
  }
  for (std::size_t c = n; c > 0; --c) upper_start_[c] = upper_start_[c - 1];
  if (n > 0) upper_start_[0] = 0;
  values_.assign(size, 0.0);
  ok_ = false;
}

void ProfileCholesky::assemble_normal(std::span<const std::size_t> col_start,
                                      std::span<const std::size_t> row_index,
                                      std::span<const double> value,
                                      std::span<const double> theta,
                                      double reg) {
  std::fill(values_.begin(), values_.end(), 0.0);
  ok_ = false;
  for (std::size_t j = 0; j + 1 < col_start.size(); ++j) {
    const std::size_t begin = col_start[j];
    const std::size_t end = col_start[j + 1];
    const double t = theta[j];
    for (std::size_t p = begin; p < end; ++p) {
      const std::size_t rp = row_index[p];
      const double tap = t * value[p];
      for (std::size_t q = p; q < end; ++q) {
        const std::size_t rq = row_index[q];
        const double term = tap * value[q];
        double& entry = rp >= rq ? (*this)(rp, rq) : (*this)(rq, rp);
        entry += term;
        if (p != q && rp == rq) entry += term;
      }
    }
  }
  for (std::size_t r = 0; r < dim(); ++r) (*this)(r, r) += reg;
}

bool ProfileCholesky::factor() {
  ok_ = false;
  const std::size_t n = dim();
  double* const v = values_.data();
  for (std::size_t i = 0; i < n; ++i) {
    // li[k] = L(i, k) for k in [fi, i]: already-computed factor entries
    // left of the current column, assembled-matrix entries from it on.
    double* const li = v + offset_[i];
    const std::size_t fi = first_[i];
    for (std::size_t j = fi; j < i; ++j) {
      const double* const lj = v + offset_[j];
      double acc = li[j];
      for (std::size_t k = std::max(fi, first_[j]); k < j; ++k) {
        acc -= li[k] * lj[k];
      }
      li[j] = acc / lj[j];
    }
    double diag = li[i];
    for (std::size_t k = fi; k < i; ++k) diag -= li[k] * li[k];
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    li[i] = std::sqrt(diag);
  }
  ok_ = true;
  return true;
}

void ProfileCholesky::solve_in_place(Vec& bx) const {
  ECA_CHECK(ok_, "ProfileCholesky::solve_in_place called before a successful factor()");
  const std::size_t n = dim();
  ECA_CHECK(bx.size() == n);
  const double* const v = values_.data();
  // Forward substitution, L y = b: bx[k] for k < i already holds y.
  for (std::size_t i = 0; i < n; ++i) {
    const double* const li = v + offset_[i];
    double acc = bx[i];
    for (std::size_t k = first_[i]; k < i; ++k) acc -= li[k] * bx[k];
    bx[i] = acc / li[i];
  }
  // Back substitution, L^T x = y: row c of L^T is column c of L, whose
  // nonzeros below the diagonal are the transposed envelope's rows.
  for (std::size_t c = n; c-- > 0;) {
    double acc = bx[c];
    for (std::size_t p = upper_start_[c]; p < upper_start_[c + 1]; ++p) {
      const std::size_t k = upper_row_[p];
      acc -= v[offset_[k] + c] * bx[k];
    }
    bx[c] = acc / v[offset_[c] + c];
  }
}

}  // namespace eca::linalg
