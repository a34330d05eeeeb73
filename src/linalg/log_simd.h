// Branch-free natural logarithm for vectorizable loops.
//
// std::log is an opaque libm call, so a loop that takes one logarithm per
// element stays scalar. log_simd is fdlibm's __ieee754_log polynomial
// (Lg1..Lg7 on s = f/(2+f), ln 2 split into ln2_hi + ln2_lo) written as
// straight-line code that GCC vectorizes with plain SSE2 under ECA_SIMD —
// no libmvec, no ISA dispatch, no -ffast-math:
//   - the exponent/mantissa split uses only 64-bit integer add, logical
//     shift and mask around fdlibm's reduction point just below √2/2, and
//     the exponent becomes a double through the 2^52 bias trick (SSE2 has
//     no int64 -> double conversion);
//   - special inputs are integer-mask blends, never a `?:` on doubles: the
//     optimizer turns such a select into a branch, sinks the floating-point
//     work into it, and trapping math then forbids the if-conversion the
//     vectorizer needs.
//
// Accuracy contract (tests/linalg/log_simd_test.cc): within 1 ulp of
// std::log on every positive finite input, subnormals included, and
// bitwise equal to it on ±0 (-inf), +inf (+inf), negatives and NaN (the
// NaN of an invalid operation on x, which is x's own payload when x is a
// NaN). It is not bitwise equal to glibc on all normal inputs: glibc's
// table-driven log is nearly correctly rounded, fdlibm's polynomial is not.
// A vectorized and a scalar call on the same input return the same bits:
// the build is ISO C++ (-ffp-contract=off), so nothing is fused.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace eca::linalg {

namespace log_detail {

inline std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// All-ones when a < b, else zero (a, b < 2^63): the borrow of a - b.
inline std::uint64_t less_mask(std::uint64_t a, std::uint64_t b) {
  return 0 - ((a - b) >> 63);
}

// a where m is set, b elsewhere.
inline std::uint64_t blend(std::uint64_t m, std::uint64_t a, std::uint64_t b) {
  return (a & m) | (b & ~m);
}

}  // namespace log_detail

inline double log_simd(double x) {
  using log_detail::bits;
  using log_detail::blend;
  using log_detail::less_mask;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 0x3fe62e42fee00000
  constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 0x3dea39ef35793c76
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;
  // fdlibm's reduction: x = 2^k · z with z in [kSplit, 2·kSplit), kSplit
  // the bit pattern with high word 0x3fe6a09c, just below √2/2.
  constexpr std::uint64_t kSplit = 0x3fe6a09c00000000ULL;
  constexpr std::uint64_t kExpField = 0xfff0000000000000ULL;
  constexpr std::uint64_t kSign = 0x8000000000000000ULL;
  constexpr std::uint64_t kMinNormal = 0x0010000000000000ULL;
  constexpr std::uint64_t kInfBits = 0x7ff0000000000000ULL;
  constexpr std::uint64_t kTwo52 = 0x4330000000000000ULL;  // bits of 2^52
  constexpr double kInf = std::numeric_limits<double>::infinity();

  const std::uint64_t ux = bits(x);
  // Subnormals: the exact rescale by 2^54 gives the split a normal number,
  // and taking 54 off its exponent field undoes the scale in k (the split
  // below is modular, so the field may wrap). The mask is also set for
  // negative x, whose lanes the specials below overwrite.
  const std::uint64_t tiny = less_mask(ux, kMinNormal);
  const std::uint64_t u = blend(tiny, bits(x * 0x1p54) - (54ULL << 52), ux);
  // t = k·2^52 + (mantissa offset) in two's complement, so its top twelve
  // bits are k; a 2048·2^52 bias makes them k + 2048 >= 0 for the logical
  // shift, and the biased exponent reads back as 2^52 + k + 2048.
  const std::uint64_t t = u - kSplit;
  const double z = std::bit_cast<double>(u - (t & kExpField));
  const std::uint64_t k_biased = (t + (2048ULL << 52)) >> 52;
  const double k =
      std::bit_cast<double>(kTwo52 | k_biased) - (0x1p52 + 2048.0);

  const double f = z - 1.0;  // exact: z in [0.707, 1.415)
  const double s = f / (2.0 + f);
  const double s2 = s * s;
  const double s4 = s2 * s2;
  const double t1 = s4 * (kLg2 + s4 * (kLg4 + s4 * kLg6));
  const double t2 = s2 * (kLg1 + s4 * (kLg3 + s4 * (kLg5 + s4 * kLg7)));
  const double r = t2 + t1;
  const double hfsq = 0.5 * f * f;
  const double log_x =
      k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);

  // Specials, as std::log, in one final blend so that only it sits on the
  // dependency chain after the polynomial. A lane is special when x is
  // ±0, negative, +inf or NaN, i.e. when ux - 1 (unsigned) is at least
  // the bits of +inf minus one. Its value: -inf for ±0; (x - x) · inf for a
  // sign-set x (the invalid-operation NaN, or x's payload when x is NaN);
  // x + x otherwise (+inf, or x's payload quieted).
  const std::uint64_t d = ux - 1;
  const std::uint64_t special = 0 - ((d | ((kInfBits - 2) - d)) >> 63);
  const std::uint64_t negative = 0 - (ux >> 63);
  const std::uint64_t zero = less_mask(ux & ~kSign, 1);
  std::uint64_t e = blend(negative, bits((x - x) * kInf), bits(x + x));
  e = blend(zero, bits(-kInf), e);
  const std::uint64_t out = blend(special, e, bits(log_x));
  return std::bit_cast<double>(out);
}

}  // namespace eca::linalg
