#include "nn/ops/requantize.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qmcu::nn::ops {

FixedPointMultiplier quantize_multiplier(double real_multiplier) {
  QMCU_REQUIRE(real_multiplier > 0.0, "multiplier must be positive");
  QMCU_REQUIRE(real_multiplier < (1ll << 30),
               "multiplier implausibly large");
  FixedPointMultiplier out;
  if (real_multiplier == 0.0) return out;

  int exponent = 0;
  const double mantissa = std::frexp(real_multiplier, &exponent);
  // mantissa in [0.5, 1): scale into Q31.
  auto q = static_cast<std::int64_t>(std::llround(mantissa * (1ll << 31)));
  QMCU_ENSURE(q <= (1ll << 31), "frexp mantissa out of range");
  if (q == (1ll << 31)) {
    q /= 2;
    ++exponent;
  }
  out.mantissa = static_cast<std::int32_t>(q);
  out.right_shift = -exponent;  // real = mantissa * 2^exponent
  return out;
}

std::int32_t saturating_rounding_doubling_high_mul(std::int32_t a,
                                                   std::int32_t b) {
  const bool overflow = a == b && a == std::numeric_limits<std::int32_t>::min();
  if (overflow) return std::numeric_limits<std::int32_t>::max();
  const std::int64_t ab = static_cast<std::int64_t>(a) * b;
  const std::int32_t nudge = ab >= 0 ? (1 << 30) : (1 - (1 << 30));
  return static_cast<std::int32_t>((ab + nudge) / (1ll << 31));
}

std::int32_t rounding_divide_by_pot(std::int32_t x, int exponent) {
  QMCU_REQUIRE(exponent >= 0 && exponent <= 31, "shift exponent out of range");
  if (exponent == 0) return x;
  const std::int32_t mask = static_cast<std::int32_t>((1u << exponent) - 1);
  const std::int32_t remainder = x & mask;
  std::int32_t threshold = mask >> 1;
  if (x < 0) ++threshold;
  std::int32_t result = x >> exponent;
  if (remainder > threshold) ++result;
  return result;
}

std::int32_t apply_multiplier(std::int32_t acc,
                              const FixedPointMultiplier& m) {
  std::int32_t left_shifted = acc;
  int right = m.right_shift;
  if (right < 0) {
    // Multiplier >= 1: pre-shift left (rare; happens for very small output
    // scales). Saturate on the way.
    const int left = -right;
    const std::int64_t shifted = static_cast<std::int64_t>(acc) << left;
    constexpr std::int64_t lo = std::numeric_limits<std::int32_t>::min();
    constexpr std::int64_t hi = std::numeric_limits<std::int32_t>::max();
    left_shifted = static_cast<std::int32_t>(
        shifted < lo ? lo : (shifted > hi ? hi : shifted));
    right = 0;
  }
  const std::int32_t mul =
      saturating_rounding_doubling_high_mul(left_shifted, m.mantissa);
  return rounding_divide_by_pot(mul, right);
}

std::int32_t clamp_to(std::int32_t v, std::int32_t lo, std::int32_t hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

ElementRequantizer::ElementRequantizer(double real_multiplier,
                                       std::int32_t max_abs_input) {
  QMCU_REQUIRE(max_abs_input > 0, "max_abs_input must be positive");
  const FixedPointMultiplier base = quantize_multiplier(real_multiplier);
  // Two ceilings on the pre-shift: the shifted input must stay below 2^30
  // (SRDHM headroom), and the combined right shift must stay within the
  // 31-bit budget of rounding_divide_by_pot.
  int magnitude_bits = 0;
  while ((std::int64_t{1} << magnitude_bits) < max_abs_input) ++magnitude_bits;
  const int input_headroom = 30 - magnitude_bits;
  const int shift_headroom = 31 - std::max(base.right_shift, 0);
  left_shift_ = std::max(0, std::min({20, input_headroom, shift_headroom}));
  m_ = quantize_multiplier(std::ldexp(real_multiplier, -left_shift_));
}

AddMultipliers add_multipliers(float lhs_scale, float rhs_scale,
                               float out_scale) {
  const double twice_max = 2.0 * std::max(static_cast<double>(lhs_scale),
                                          static_cast<double>(rhs_scale));
  AddMultipliers m;
  m.lhs = quantize_multiplier(static_cast<double>(lhs_scale) / twice_max);
  m.rhs = quantize_multiplier(static_cast<double>(rhs_scale) / twice_max);
  m.out = quantize_multiplier(
      twice_max / ((std::int64_t{1} << AddMultipliers::kLeftShift) *
                   static_cast<double>(out_scale)));
  return m;
}

void requant_i8_row_scalar(const std::int8_t* src, std::int64_t n,
                           std::int32_t in_zp, int left_shift,
                           FixedPointMultiplier m, std::int32_t out_zp,
                           std::int32_t lo, std::int32_t hi,
                           std::int8_t* dst) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t centered =
        (static_cast<std::int32_t>(src[i]) - in_zp) * (1 << left_shift);
    dst[i] = static_cast<std::int8_t>(
        clamp_to(apply_multiplier(centered, m) + out_zp, lo, hi));
  }
}

void add_row_scalar(const std::int8_t* a, const std::int8_t* b,
                    std::int64_t n, std::int32_t a_zp, std::int32_t b_zp,
                    const AddMultipliers& m, std::int32_t out_zp,
                    std::int32_t lo, std::int32_t hi, std::int8_t* out) {
  constexpr std::int32_t kScale = 1 << AddMultipliers::kLeftShift;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t av = (static_cast<std::int32_t>(a[i]) - a_zp) * kScale;
    const std::int32_t bv = (static_cast<std::int32_t>(b[i]) - b_zp) * kScale;
    const std::int32_t sum =
        apply_multiplier(av, m.lhs) + apply_multiplier(bv, m.rhs);
    out[i] = static_cast<std::int8_t>(
        clamp_to(apply_multiplier(sum, m.out) + out_zp, lo, hi));
  }
}

}  // namespace qmcu::nn::ops
