// Accuracy contract of linalg::log_simd (see log_simd.h): within 1 ulp of
// std::log on positive finite inputs, bitwise equal to it on special
// inputs, and the same bits from a vectorized loop as from scalar calls.
#include "linalg/log_simd.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/vector_ops.h"

namespace eca::linalg {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Distance in units in the last place, over the ordered integer image of
// the doubles (so it is also correct across a change of binade).
std::uint64_t ulp_distance(double a, double b) {
  const auto ordered = [](double v) {
    const auto i = std::bit_cast<std::int64_t>(v);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t ia = ordered(a);
  const std::int64_t ib = ordered(b);
  return ia > ib ? static_cast<std::uint64_t>(ia - ib)
                 : static_cast<std::uint64_t>(ib - ia);
}

// Runs out of line, so each call is a scalar evaluation of the kernel.
[[gnu::noinline]] double scalar_log(double x) { return log_simd(x); }

void vector_log(const std::vector<double>& in, std::vector<double>& out) {
  const double* __restrict ip = in.data();
  double* __restrict op = out.data();
  const std::size_t n = in.size();
  ECA_SIMD
  for (std::size_t i = 0; i < n; ++i) op[i] = log_simd(ip[i]);
}

void expect_within_one_ulp(const std::vector<double>& xs, const char* what) {
  std::vector<double> got(xs.size());
  vector_log(xs, got);
  std::uint64_t worst = 0;
  double worst_x = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint64_t d = ulp_distance(got[i], std::log(xs[i]));
    if (d > worst) {
      worst = d;
      worst_x = xs[i];
    }
  }
  EXPECT_LE(worst, 1u) << what << ": worst input " << worst_x;
}

TEST(LogSimd, WithinOneUlpOnLogUniformNormals) {
  Rng rng(11);
  std::vector<double> xs(1 << 20);
  const double lo = std::log(std::numeric_limits<double>::min());
  const double hi = std::log(std::numeric_limits<double>::max());
  for (double& x : xs) x = std::exp(rng.uniform(lo, hi));
  expect_within_one_ulp(xs, "log-uniform normal range");
}

TEST(LogSimd, WithinOneUlpNearOneAndNearTheSplit) {
  // log(1 + f) for tiny f is where cancellation would show, and z crosses
  // fdlibm's reduction point (high word 0x3fe6a09c, below √2/2) where k
  // steps by one; sweep both densely, also a few binades away.
  Rng rng(12);
  std::vector<double> xs;
  const double split = std::bit_cast<double>(0x3fe6a09c00000000ULL);
  for (const double center : {1.0, split, 2.0 * split, 0x1p-600 * split,
                              0x1p600 * split}) {
    for (int i = 0; i < 1 << 17; ++i) {
      xs.push_back(center * (1.0 + rng.uniform(-1e-3, 1e-3)));
      xs.push_back(center * (1.0 + rng.uniform(-1e-9, 1e-9)));
    }
    double below = center;
    double above = center;
    for (int i = 0; i < 4096; ++i) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, kInf);
      xs.push_back(below);
      xs.push_back(above);
    }
  }
  expect_within_one_ulp(xs, "near 1 and the reduction point");
}

TEST(LogSimd, WithinOneUlpOnSubnormals) {
  Rng rng(13);
  std::vector<double> xs(1 << 16);
  const double lo = std::log(std::numeric_limits<double>::denorm_min());
  const double hi = std::log(std::numeric_limits<double>::min());
  for (double& x : xs) x = std::exp(rng.uniform(lo, hi));
  xs.push_back(std::numeric_limits<double>::denorm_min());
  xs.push_back(std::nextafter(std::numeric_limits<double>::min(), 0.0));
  expect_within_one_ulp(xs, "subnormal range");
}

TEST(LogSimd, SpecialsAreBitwiseStdLog) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> specials = {
      0.0,     -0.0,     kInf,  -kInf, qnan, -qnan,
      std::bit_cast<double>(0x7ff8000000000123ULL),  // NaN with a payload
      -1.0,    -1e-300,  -std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::max(),
      1.0,  // exact zero result
  };
  std::vector<double> vectorized(specials.size());
  vector_log(specials, vectorized);
  for (std::size_t i = 0; i < specials.size(); ++i) {
    const auto want = std::bit_cast<std::uint64_t>(std::log(specials[i]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar_log(specials[i])), want)
        << "scalar, input " << specials[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(vectorized[i]), want)
        << "vectorized, input " << specials[i];
  }
}

TEST(LogSimd, VectorizedLoopMatchesScalarCallsBitwise) {
  // Mixed magnitudes and specials in one array, with an odd length so the
  // loop's scalar epilogue runs too.
  Rng rng(14);
  std::vector<double> xs(4099);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = std::exp(rng.uniform(-745.0, 709.0));
  }
  xs[5] = 0.0;
  xs[6] = -3.0;
  xs[7] = kInf;
  xs[8] = std::numeric_limits<double>::quiet_NaN();
  xs[9] = std::numeric_limits<double>::denorm_min();
  std::vector<double> got(xs.size());
  vector_log(xs, got);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(scalar_log(xs[i])))
        << "input " << xs[i];
  }
}

}  // namespace
}  // namespace eca::linalg
