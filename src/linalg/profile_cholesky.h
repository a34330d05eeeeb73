// Cholesky factorization A = L L^T of a symmetric positive-definite matrix
// held in profile (envelope) storage — the normal-equations factor of the
// interior-point LP solver.
//
// Row i stores columns first(i)..i of the lower triangle contiguously. The
// envelope is closed under Cholesky fill: L(i, k) is exactly zero for
// k < first(i), so the factor overwrites the assembled matrix in place and
// never leaves the envelope. A dense matrix is the special case
// first(i) = 0 for every row.
//
// The loops are the textbook left-looking inner-product Cholesky with every
// structurally zero term skipped and nothing else changed: each entry of the
// factor and of both triangular solves accumulates the same products in the
// same ascending-k order as the dense loops would, so the results are
// bitwise those of a dense factorization of the same matrix
// (tests/linalg/dense_cholesky_reference.h keeps the dense loops as the
// reference). The back solve is a per-row dot product over the transposed
// envelope for the same reason — a column-axpy back solve would reorder the
// sums.
//
// All storage is sized with assign(), so re-analysing and refactoring a
// same-shaped matrix never allocates.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"
#include "linalg/vector_ops.h"

namespace eca::linalg {

// Envelope of M = A·D·A^T for a diagonal D and an m-row matrix A in
// compressed-column form (column j holds rows row_index[col_start[j]] ..
// row_index[col_start[j + 1] - 1]): first[r] is the smallest row that shares
// a column with row r, or r itself. Entries of M left of first[r] in row r
// are structurally zero whatever D is.
void normal_envelope(std::size_t m, std::span<const std::size_t> col_start,
                     std::span<const std::size_t> row_index,
                     std::vector<std::size_t>& first);

class ProfileCholesky {
 public:
  // Sets the envelope (first[i] <= i for every row) and zero-fills the
  // storage. Also builds the transposed envelope the back solve walks.
  void set_envelope(std::span<const std::size_t> first);

  // Assembles M = A·diag(theta)·A^T + reg·I into the envelope, replacing
  // its contents; A is in the compressed-column form of normal_envelope()
  // with coefficients `value`, and the envelope must contain M's (the
  // normal_envelope() of A's pattern does). Each entry sums its terms over
  // ascending columns, a column's symmetric pair landing on the lower entry
  // once and a row repeated within a column twice — the order in which a
  // full-matrix loop over pairs (p, q >= p) adding to (r_p, r_q) and
  // (r_q, r_p) accumulates them; the diagonal shift comes last.
  void assemble_normal(std::span<const std::size_t> col_start,
                       std::span<const std::size_t> row_index,
                       std::span<const double> value,
                       std::span<const double> theta, double reg);

  [[nodiscard]] std::size_t dim() const { return first_.size(); }
  [[nodiscard]] std::size_t first(std::size_t i) const { return first_[i]; }
  // Stored entries: Σ_i (i − first(i) + 1).
  [[nodiscard]] std::size_t profile_size() const { return values_.size(); }

  // Entry (i, k) of the lower triangle, first(i) <= k <= i. Before factor()
  // it is the matrix being assembled; after, the factor L.
  double& operator()(std::size_t i, std::size_t k) {
    ECA_DCHECK(i < dim() && first_[i] <= k && k <= i);
    return values_[offset_[i] + k];
  }
  double operator()(std::size_t i, std::size_t k) const {
    ECA_DCHECK(i < dim() && first_[i] <= k && k <= i);
    return values_[offset_[i] + k];
  }

  // Factors the assembled matrix in place. Returns false when it is not
  // (numerically) positive definite; the storage then holds a partial
  // factor and must be reassembled before the next factor().
  bool factor();
  // Solves A x = b in place with the stored factor, overwriting `bx`.
  void solve_in_place(Vec& bx) const;

 private:
  std::vector<std::size_t> first_;
  // Entry (i, k) lives at values_[offset_[i] + k]; offset_[i] is row i's
  // storage start minus first(i), never negative since each row holds at
  // least its diagonal.
  std::vector<std::size_t> offset_;
  // Transposed envelope: the rows k > c with first(k) <= c, ascending, are
  // upper_row_[upper_start_[c] .. upper_start_[c + 1]).
  std::vector<std::size_t> upper_start_;
  std::vector<std::size_t> upper_row_;
  Vec values_;
  bool ok_ = false;
};

}  // namespace eca::linalg
