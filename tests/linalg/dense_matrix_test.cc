#include "linalg/dense_matrix.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/profile_cholesky.h"

namespace eca::linalg {
namespace {

DenseMatrix random_matrix(Rng& rng, std::size_t r, std::size_t c) {
  DenseMatrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-2.0, 2.0);
  }
  return m;
}

DenseMatrix random_spd(Rng& rng, std::size_t n) {
  const DenseMatrix a = random_matrix(rng, n, n);
  DenseMatrix spd = a.multiply(a.transpose());
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

// A dense SPD matrix is the full-envelope case of the profile factor.
ProfileCholesky full_envelope(const DenseMatrix& a) {
  ProfileCholesky chol;
  chol.set_envelope(std::vector<std::size_t>(a.rows(), 0));
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k <= i; ++k) chol(i, k) = a(i, k);
  }
  return chol;
}

TEST(DenseMatrix, IdentityMultiplication) {
  Rng rng(1);
  const DenseMatrix a = random_matrix(rng, 4, 4);
  const DenseMatrix prod = a.multiply(DenseMatrix::identity(4));
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(prod(i, j), a(i, j));
    }
  }
}

TEST(DenseMatrix, MatvecMatchesManual) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vec y = a.multiply(Vec{1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  const Vec yt = a.multiply_transpose(Vec{1.0, 1.0});
  EXPECT_DOUBLE_EQ(yt[0], 5.0);
  EXPECT_DOUBLE_EQ(yt[1], 7.0);
  EXPECT_DOUBLE_EQ(yt[2], 9.0);
}

TEST(DenseMatrix, TransposeInvolution) {
  Rng rng(3);
  const DenseMatrix a = random_matrix(rng, 3, 5);
  const DenseMatrix att = a.transpose().transpose();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) EXPECT_EQ(att(i, j), a(i, j));
  }
}

class FactorizationTest : public ::testing::TestWithParam<int> {};

TEST_P(FactorizationTest, CholeskySolvesSpdSystem) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 2 + rng.uniform_index(8);
  const DenseMatrix a = random_spd(rng, n);
  Vec b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  ProfileCholesky chol = full_envelope(a);
  ASSERT_TRUE(chol.factor());
  Vec x = b;
  chol.solve_in_place(x);
  const Vec ax = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST_P(FactorizationTest, LuSolvesGeneralSystem) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const std::size_t n = 2 + rng.uniform_index(8);
  DenseMatrix a = random_matrix(rng, n, n);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 3.0;  // well-conditioned
  Vec b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  Lu lu;
  ASSERT_TRUE(lu.factor(a));
  const Vec x = lu.solve(b);
  const Vec ax = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
  const Vec xt = lu.solve_transpose(b);
  const Vec atx = a.multiply_transpose(xt);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(atx[i], b[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FactorizationTest, ::testing::Range(0, 20));

TEST(Cholesky, RejectsIndefiniteMatrix) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // eigenvalues 3, -1
  ProfileCholesky chol = full_envelope(a);
  EXPECT_FALSE(chol.factor());
}

TEST(Lu, RejectsSingularMatrix) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  Lu lu;
  EXPECT_FALSE(lu.factor(a));
}

TEST(VectorOps, BasicIdentities) {
  const Vec a = {1.0, 2.0, 3.0};
  const Vec b = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(norm_inf(b), 6.0);
  EXPECT_DOUBLE_EQ(sum(a), 6.0);
  Vec y = a;
  axpy(2.0, b, y);
  EXPECT_DOUBLE_EQ(y[0], 9.0);
  EXPECT_DOUBLE_EQ(y[1], -8.0);
  EXPECT_DOUBLE_EQ(distance_inf(a, b), 7.0);
}

}  // namespace
}  // namespace eca::linalg
