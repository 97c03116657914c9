// requantize.h — gemmlowp/TFLite-Micro style fixed-point requantization.
//
// The int32 convolution accumulator is rescaled to the output's quantized
// domain by an effective real multiplier
//     M = (input_scale * weight_scale) / output_scale,  0 < M < 1 typically,
// represented as a Q31 fixed-point mantissa plus a right shift. This mirrors
// the integer-only arithmetic MCU kernels (CMSIS-NN / TFLite-Micro) perform —
// no float operations on the inference path.
#pragma once

#include <cstdint>

#include "nn/check.h"

namespace qmcu::nn::ops {

struct FixedPointMultiplier {
  std::int32_t mantissa = 0;  // Q31
  int right_shift = 0;        // total right shift applied after the mul
};

// Decomposes a positive real multiplier into Q31 mantissa and shift.
FixedPointMultiplier quantize_multiplier(double real_multiplier);

// Saturating rounding doubling high multiply (ARM SQRDMULH semantics).
std::int32_t saturating_rounding_doubling_high_mul(std::int32_t a,
                                                   std::int32_t b);

// Rounding arithmetic shift right (round-half-away-from-zero).
std::int32_t rounding_divide_by_pot(std::int32_t x, int exponent);

// acc * M using the fixed-point representation.
std::int32_t apply_multiplier(std::int32_t acc, const FixedPointMultiplier& m);

// Clamp helper for the quantized output range.
std::int32_t clamp_to(std::int32_t v, std::int32_t lo, std::int32_t hi);

// Precision-boosted elementwise requantizer for the integer-only elementwise
// ops (Add, Concat, AvgPool mean, slice requantization). The centered input
// is pre-shifted left so the Q31 multiply keeps up to 20 extra fractional
// bits (the TFLite Add left-shift convention) before the single fixed-point
// rescale. `max_abs_input` bounds the values that will be passed to apply();
// the left shift is chosen so the shifted value cannot overflow int32 and
// the total right shift stays within the 31-bit budget.
class ElementRequantizer {
 public:
  explicit ElementRequantizer(double real_multiplier,
                              std::int32_t max_abs_input = 256);

  [[nodiscard]] std::int32_t apply(std::int32_t centered) const {
    return apply_multiplier(centered * (1 << left_shift_), m_);
  }

  [[nodiscard]] int left_shift() const { return left_shift_; }
  // The post-shift Q31 multiplier — exposed so the Simd tier's vectorized
  // slice requantizer reproduces apply() lane-for-lane.
  [[nodiscard]] const FixedPointMultiplier& multiplier() const { return m_; }

 private:
  FixedPointMultiplier m_{};
  int left_shift_ = 0;
};

// The three multipliers of the TFLite integer Add: both operands are
// shifted left by kLeftShift, rescaled onto a shared grid at
// 2*max(scale), summed in int32, then rescaled once into the output.
struct AddMultipliers {
  static constexpr int kLeftShift = 20;
  FixedPointMultiplier lhs;
  FixedPointMultiplier rhs;
  FixedPointMultiplier out;
};
AddMultipliers add_multipliers(float lhs_scale, float rhs_scale,
                               float out_scale);

// Scalar row bodies: the arithmetic contract of the element-wise row
// kernels in nn/ops/simd/simd_kernels.h, and their fallback.
//
// dst[i] = clamp(apply_multiplier((src[i] - in_zp) << left_shift, m)
//                + out_zp, lo, hi) for i in [0, n).
void requant_i8_row_scalar(const std::int8_t* src, std::int64_t n,
                           std::int32_t in_zp, int left_shift,
                           FixedPointMultiplier m, std::int32_t out_zp,
                           std::int32_t lo, std::int32_t hi, std::int8_t* dst);
// out[i] = clamp(apply_multiplier(apply_multiplier((a[i] - a_zp) << 20,
//                m.lhs) + apply_multiplier((b[i] - b_zp) << 20, m.rhs),
//                m.out) + out_zp, lo, hi) for i in [0, n).
void add_row_scalar(const std::int8_t* a, const std::int8_t* b,
                    std::int64_t n, std::int32_t a_zp, std::int32_t b_zp,
                    const AddMultipliers& m, std::int32_t out_zp,
                    std::int32_t lo, std::int32_t hi, std::int8_t* out);

}  // namespace qmcu::nn::ops
