// Row-major dense matrix with partially pivoted LU (general square systems:
// the Newton solver's Schur system, basis checks in tests). The SPD
// normal-equations factor of the interior-point LP solver lives in
// linalg/profile_cholesky.h.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "linalg/vector_ops.h"

namespace eca::linalg {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static DenseMatrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    ECA_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    ECA_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] const std::vector<double>& data() const { return data_; }
  // Raw row-major storage for kernel calls (linalg::syrk_scaled_acc and
  // friends) that operate on pointer/stride views.
  [[nodiscard]] double* mutable_data() { return data_.data(); }

  // out = this * x
  [[nodiscard]] Vec multiply(const Vec& x) const;
  // out = this^T * x
  [[nodiscard]] Vec multiply_transpose(const Vec& x) const;
  [[nodiscard]] DenseMatrix multiply(const DenseMatrix& other) const;
  // out = this * other into a pre-shaped caller-owned matrix
  // (allocation-free matmul for solver workspaces). Cache-blocked i-k-j
  // kernel: the result matches multiply_into_reference to roundoff
  // (1e-12 relative; blocking reassociates the k-sums).
  void multiply_into(const DenseMatrix& other, DenseMatrix& out) const;
  // Scalar reference path of multiply_into (the original triple loop with
  // serial k-order accumulation); kept selectable for testing.
  void multiply_into_reference(const DenseMatrix& other,
                               DenseMatrix& out) const;
  [[nodiscard]] DenseMatrix transpose() const;

  void add_scaled(const DenseMatrix& other, double alpha);

  void set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }

  // Reshapes to rows x cols and zero-fills. Retains the underlying storage
  // capacity, so repeated same-size (or shrinking) reshapes never allocate —
  // the workspace-reuse contract of the solver hot paths.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// LU factorization with partial pivoting, PA = LU.
class Lu {
 public:
  bool factor(const DenseMatrix& a);
  [[nodiscard]] Vec solve(const Vec& b) const;
  // Solves A x = b in place, overwriting `bx` with x. Uses an internal
  // scratch buffer that is reused across calls, so repeated same-size
  // solves never allocate (the hot path of the Newton loop).
  void solve_in_place(Vec& bx);
  // Solves A^T x = b.
  [[nodiscard]] Vec solve_transpose(const Vec& b) const;
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  Vec scratch_;
  bool ok_ = false;
};

}  // namespace eca::linalg
