// Bit-identity of the profile (envelope) Cholesky against the dense loops it
// replaced (dense_cholesky_reference.h): assembly, factor and both
// triangular solves must agree byte for byte, on full envelopes (dense SPD)
// and on the sparse envelopes the slot LPs produce.
#include "linalg/profile_cholesky.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dense_cholesky_reference.h"

namespace eca::linalg {
namespace {

using testing::Csc;
using testing::expect_normal_solve_matches_dense;

Vec random_vec(Rng& rng, std::size_t n, double lo, double hi) {
  Vec v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

// Θ spread over `decades` orders of magnitude either side of 1, as the
// interior-point scaling Z/X becomes once iterates approach a vertex.
Vec log_uniform_theta(Rng& rng, std::size_t n, double decades) {
  Vec theta(n);
  for (auto& t : theta) t = std::pow(10.0, rng.uniform(-decades, decades));
  return theta;
}

// Every column touches every row: the normal matrix is dense.
Csc dense_columns(Rng& rng, std::size_t rows, std::size_t cols) {
  Csc a;
  a.rows = rows;
  for (std::size_t j = 0; j < cols; ++j) {
    std::vector<std::pair<std::size_t, double>> entries;
    for (std::size_t r = 0; r < rows; ++r) {
      entries.push_back({r, rng.uniform(-2.0, 2.0)});
    }
    a.add_column(entries);
  }
  return a;
}

// The slot-LP shape: `lead` disjoint rows first (each column touches one of
// them), then `coupling` rows that columns touch at random. Some columns
// repeat a row, some touch only coupling rows, and every row has a slack.
Csc leading_diagonal_block(Rng& rng, std::size_t lead, std::size_t coupling) {
  Csc a;
  a.rows = lead + coupling;
  for (std::size_t d = 0; d < lead; ++d) {
    for (std::size_t c = 0; c < coupling; ++c) {
      if (!rng.bernoulli(0.6)) continue;
      std::vector<std::pair<std::size_t, double>> entries{
          {d, rng.uniform(0.5, 2.0)}, {lead + c, rng.uniform(-2.0, 2.0)}};
      if (rng.bernoulli(0.3)) {
        entries.push_back({lead + rng.uniform_index(coupling), -1.0});
      }
      if (rng.bernoulli(0.1)) entries.push_back({d, 1.0});
      a.add_column(entries);
    }
  }
  for (std::size_t c = 0; c < coupling; ++c) {
    a.add_column({{lead + c, 1.0}, {lead + rng.uniform_index(coupling), 0.5}});
  }
  for (std::size_t r = 0; r < a.rows; ++r) {
    a.add_column({{r, rng.bernoulli(0.5) ? 1.0 : -1.0}});
  }
  return a;
}

// No ordering structure at all: rows land anywhere.
Csc scattered(Rng& rng, std::size_t rows, std::size_t cols) {
  Csc a;
  a.rows = rows;
  for (std::size_t j = 0; j < cols; ++j) {
    std::vector<std::pair<std::size_t, double>> entries;
    const std::size_t count = 1 + rng.uniform_index(3);
    for (std::size_t e = 0; e < count; ++e) {
      entries.push_back({rng.uniform_index(rows), rng.uniform(-2.0, 2.0)});
    }
    a.add_column(entries);
  }
  for (std::size_t r = 0; r < rows; ++r) a.add_column({{r, 1.0}});
  return a;
}

class ProfileCholeskySeeds : public ::testing::TestWithParam<int> {};

TEST_P(ProfileCholeskySeeds, DenseSpdMatchesDenseLoopsBitwise) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1);
  const std::size_t rows = 1 + rng.uniform_index(40);
  const Csc a = dense_columns(rng, rows, rows + rng.uniform_index(10));
  std::vector<std::size_t> first;
  normal_envelope(a.rows, a.col_start, a.row_index, first);
  for (std::size_t r = 0; r < rows; ++r) ASSERT_EQ(first[r], 0u);
  expect_normal_solve_matches_dense(a, random_vec(rng, a.cols(), 0.5, 2.0),
                                    1e-10, random_vec(rng, rows, -1.0, 1.0));
}

TEST_P(ProfileCholeskySeeds, LeadingDiagonalBlockMatchesDenseLoopsBitwise) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const std::size_t lead = 1 + rng.uniform_index(60);
  const std::size_t coupling = 1 + rng.uniform_index(8);
  const Csc a = leading_diagonal_block(rng, lead, coupling);
  std::vector<std::size_t> first;
  normal_envelope(a.rows, a.col_start, a.row_index, first);
  for (std::size_t r = 0; r < lead; ++r) ASSERT_EQ(first[r], r);
  for (double decades : {0.5, 6.0, 12.0}) {
    expect_normal_solve_matches_dense(
        a, log_uniform_theta(rng, a.cols(), decades), 1e-10,
        random_vec(rng, a.rows, -1.0, 1.0));
  }
}

TEST_P(ProfileCholeskySeeds, ScatteredPatternMatchesDenseLoopsBitwise) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 200);
  const std::size_t rows = 2 + rng.uniform_index(30);
  const Csc a = scattered(rng, rows, 2 * rows);
  expect_normal_solve_matches_dense(a, log_uniform_theta(rng, a.cols(), 6.0),
                                    1e-10, random_vec(rng, rows, -1.0, 1.0));
}

TEST_P(ProfileCholeskySeeds, IndefiniteMatrixFailsLikeDenseLoops) {
  // Negative scalings make A·Θ·A^T indefinite; both factorizations must
  // reject it (the IPM's regularization retry depends on the verdict).
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 300);
  const Csc a = leading_diagonal_block(rng, 10, 3);
  Vec theta = random_vec(rng, a.cols(), 0.5, 2.0);
  for (auto& t : theta) {
    if (rng.bernoulli(0.3)) t = -t;
  }
  expect_normal_solve_matches_dense(a, theta, 0.0,
                                    random_vec(rng, a.rows, -1.0, 1.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileCholeskySeeds, ::testing::Range(0, 12));

TEST(NormalEnvelope, FirstIsSmallestRowSharingAColumn) {
  // Rows 0 and 1 are disjoint; row 2 meets row 1; row 3 meets row 0.
  Csc a;
  a.rows = 4;
  a.add_column({{1, 1.0}, {2, 1.0}});
  a.add_column({{3, 1.0}, {0, 1.0}});
  a.add_column({{2, 1.0}});
  std::vector<std::size_t> first;
  normal_envelope(a.rows, a.col_start, a.row_index, first);
  EXPECT_EQ(first, (std::vector<std::size_t>{0, 1, 1, 0}));
  ProfileCholesky chol;
  chol.set_envelope(first);
  EXPECT_EQ(chol.profile_size(), 1u + 1u + 2u + 4u);
}

TEST(ProfileCholesky, RefactorAfterFailureNeedsOnlyReassembly) {
  // The IPM reassembles with a larger shift after a failed factor; the
  // second factorization must not see the first one's partial state.
  Rng rng(7);
  const Csc a = leading_diagonal_block(rng, 12, 4);
  std::vector<std::size_t> first;
  normal_envelope(a.rows, a.col_start, a.row_index, first);
  ProfileCholesky chol;
  chol.set_envelope(first);
  Vec theta = random_vec(rng, a.cols(), 0.5, 2.0);
  theta.back() = -1e6;
  chol.assemble_normal(a.col_start, a.row_index, a.value, theta, 0.0);
  ASSERT_FALSE(chol.factor());
  theta.back() = 1.0;
  chol.assemble_normal(a.col_start, a.row_index, a.value, theta, 1e-8);
  ASSERT_TRUE(chol.factor());
  const Vec rhs = random_vec(rng, a.rows, -1.0, 1.0);
  Vec got = rhs;
  chol.solve_in_place(got);
  const DenseMatrix dense = testing::dense_normal(a, theta, 1e-8);
  DenseMatrix l;
  ASSERT_TRUE(testing::dense_cholesky(dense, l));
  Vec expected = rhs;
  testing::dense_cholesky_solve_in_place(l, expected);
  testing::expect_bitwise_equal(got, expected);
}

}  // namespace
}  // namespace eca::linalg
