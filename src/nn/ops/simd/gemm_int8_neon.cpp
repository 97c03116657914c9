// gemm_int8_neon.cpp — NEON microkernels for the Simd tier.
//
// Compiled only where NEON exists (baseline on aarch64). The table ships
// the exact integer MAC kernels (widening vmlal_s16 sums — int16 products
// accumulated in int32, bit-identical to the scalar sums for any order),
// the sub-byte unpack, and the fixed-point requantize epilogues. The
// epilogues take the 64-bit vmull_s32 rounding path so every lane follows
// apply_multiplier's exact SRDHM + truncating-division + rounding-shift
// sequence; vqrdmulh is deliberately NOT used — it rounds negative
// midpoints up where the scalar contract rounds them away from zero, and
// the scalar-contract parity test (RequantizeRandomizedBitExact) is the
// gate that keeps that door shut.
#include "nn/ops/simd/simd_kernels.h"

#if defined(__ARM_NEON) || defined(__ARM_NEON__)

#include <arm_neon.h>

namespace qmcu::nn::ops::simd {

namespace {

// ---------------------------------------------------------------------------
// Fixed-point requantization lanes (same derivation as the AVX2 TU).
//
// The scalar SRDHM computes (a*b + nudge) / 2^31 with truncating division,
// nudge = ab >= 0 ? 2^30 : 1 - 2^30. The sign masks come from 64-bit
// arithmetic shifts, so no 64-bit compare (absent on 32-bit ARM) is
// needed; adding 2^31 - 1 to negative nudged lanes turns the arithmetic
// shift into the truncating divide. The quotient fits int32, so the
// narrowing move is exact.

inline int64x2_t srdhm_q31_half(int32x2_t x, int32x2_t mant) {
  int64x2_t p = vmull_s32(x, mant);
  const int64x2_t neg = vshrq_n_s64(p, 63);  // 0 or -1 per lane
  p = vaddq_s64(p, vdupq_n_s64(std::int64_t{1} << 30));
  // Negative products use nudge 1 - 2^30 instead: add the difference.
  p = vaddq_s64(
      p, vandq_s64(neg, vdupq_n_s64(1 - (std::int64_t{1} << 31))));
  // Truncating divide by 2^31: bump negative lanes by 2^31 - 1, then
  // arithmetic shift.
  p = vaddq_s64(p, vandq_s64(vshrq_n_s64(p, 63),
                             vdupq_n_s64((std::int64_t{1} << 31) - 1)));
  return vshrq_n_s64(p, 31);
}

inline int32x4_t srdhm_q31_neon(int32x4_t x, int32x2_t mant) {
  const int64x2_t lo = srdhm_q31_half(vget_low_s32(x), mant);
  const int64x2_t hi = srdhm_q31_half(vget_high_s32(x), mant);
  return vcombine_s32(vmovn_s64(lo), vmovn_s64(hi));
}

// rounding_divide_by_pot: round half away from zero. `neg_exp` is the
// negated exponent for vshlq's variable arithmetic right shift; `mask` =
// 2^exp - 1 and `thr_base` = mask >> 1 (see RequantLanes).
// exponent == 0 degenerates to the identity (mask 0 => no increment).
inline int32x4_t rounding_rshift_neon(int32x4_t x, int32x4_t neg_exp,
                                      int32x4_t mask, int32x4_t thr_base) {
  const int32x4_t rem = vandq_s32(x, mask);
  // threshold = mask >> 1, +1 for negative lanes (the compare mask is -1).
  const int32x4_t thr = vsubq_s32(
      thr_base,
      vreinterpretq_s32_u32(vcltq_s32(x, vdupq_n_s32(0))));
  const int32x4_t shifted = vshlq_s32(x, neg_exp);
  return vsubq_s32(shifted,
                   vreinterpretq_s32_u32(vcgtq_s32(rem, thr)));
}

// One FixedPointMultiplier splatted across lanes: apply_multiplier's SRDHM
// by the mantissa, then the rounding shift by right_shift. Only for
// multipliers with vector_shift(m).
struct RequantLanes {
  explicit RequantLanes(const FixedPointMultiplier& m)
      : mant(vdup_n_s32(m.mantissa)),
        neg_exp(vdupq_n_s32(-m.right_shift)),
        mask(vdupq_n_s32(
            static_cast<std::int32_t>((1u << m.right_shift) - 1))),
        thr_base(vdupq_n_s32(
            static_cast<std::int32_t>(((1u << m.right_shift) - 1) >> 1))) {}

  int32x4_t operator()(int32x4_t x) const {
    return rounding_rshift_neon(srdhm_q31_neon(x, mant), neg_exp, mask,
                                thr_base);
  }

  int32x2_t mant;
  int32x4_t neg_exp;
  int32x4_t mask;
  int32x4_t thr_base;
};

// Clamps two int32x4 (already inside [-128, 127] after the clamp) and
// stores 8 consecutive int8; the saturating narrows cannot engage.
inline void store_8_i8(int32x4_t v0, int32x4_t v1, int32x4_t lo, int32x4_t hi,
                       std::int8_t* out) {
  v0 = vminq_s32(vmaxq_s32(v0, lo), hi);
  v1 = vminq_s32(vmaxq_s32(v1, lo), hi);
  const int16x8_t p16 = vcombine_s16(vqmovn_s32(v0), vqmovn_s32(v1));
  vst1_s8(out, vqmovn_s16(p16));
}

void requant_i32_row_neon(const std::int32_t* acc, const std::int32_t* offset,
                          int n, FixedPointMultiplier m, std::int32_t out_zp,
                          std::int32_t lo, std::int32_t hi, std::int8_t* out) {
  int j = 0;
  if (vector_shift(m)) {
    const RequantLanes rq(m);
    const int32x4_t zp = vdupq_n_s32(out_zp);
    const int32x4_t lov = vdupq_n_s32(lo);
    const int32x4_t hiv = vdupq_n_s32(hi);
    for (; j + 8 <= n; j += 8) {
      int32x4_t v0 = vld1q_s32(acc + j);
      int32x4_t v1 = vld1q_s32(acc + j + 4);
      if (offset != nullptr) {
        v0 = vaddq_s32(v0, vld1q_s32(offset + j));
        v1 = vaddq_s32(v1, vld1q_s32(offset + j + 4));
      }
      store_8_i8(vaddq_s32(rq(v0), zp), vaddq_s32(rq(v1), zp), lov, hiv,
                 out + j);
    }
  }
  for (; j < n; ++j) {
    const std::int32_t total = acc[j] + (offset != nullptr ? offset[j] : 0);
    out[j] = static_cast<std::int8_t>(
        clamp_to(apply_multiplier(total, m) + out_zp, lo, hi));
  }
}

void requant_i8_row_neon(const std::int8_t* src, std::int64_t n,
                         std::int32_t in_zp, int left_shift,
                         FixedPointMultiplier m, std::int32_t out_zp,
                         std::int32_t lo, std::int32_t hi, std::int8_t* dst) {
  std::int64_t i = 0;
  if (vector_shift(m)) {
    const RequantLanes rq(m);
    const int32x4_t izp = vdupq_n_s32(in_zp);
    const int32x4_t lshift = vdupq_n_s32(left_shift);
    const int32x4_t ozp = vdupq_n_s32(out_zp);
    const int32x4_t lov = vdupq_n_s32(lo);
    const int32x4_t hiv = vdupq_n_s32(hi);
    for (; i + 8 <= n; i += 8) {
      const int16x8_t w = vmovl_s8(vld1_s8(src + i));
      // centered << left_shift cannot overflow int32: the requantizer
      // chose the shift so the product fits.
      const int32x4_t c0 = vshlq_s32(
          vsubq_s32(vmovl_s16(vget_low_s16(w)), izp), lshift);
      const int32x4_t c1 = vshlq_s32(
          vsubq_s32(vmovl_s16(vget_high_s16(w)), izp), lshift);
      store_8_i8(vaddq_s32(rq(c0), ozp), vaddq_s32(rq(c1), ozp), lov, hiv,
                 dst + i);
    }
  }
  for (; i < n; ++i) {
    const std::int32_t centered =
        (static_cast<std::int32_t>(src[i]) - in_zp) * (1 << left_shift);
    dst[i] = static_cast<std::int8_t>(
        clamp_to(apply_multiplier(centered, m) + out_zp, lo, hi));
  }
}

// Residual Add (same lane derivation as the AVX2 body): each operand runs
// the i8 requantize sequence with its own multiplier, the int32 sum takes
// one more SRDHM + rounding shift into the output params.
void add_row_neon(const std::int8_t* a, const std::int8_t* b, std::int64_t n,
                  std::int32_t a_zp, std::int32_t b_zp,
                  const AddMultipliers& m, std::int32_t out_zp,
                  std::int32_t lo, std::int32_t hi, std::int8_t* out) {
  if (!vector_shift(m.lhs) || !vector_shift(m.rhs) || !vector_shift(m.out)) {
    add_row_scalar(a, b, n, a_zp, b_zp, m, out_zp, lo, hi, out);
    return;
  }
  const RequantLanes ra(m.lhs);
  const RequantLanes rb(m.rhs);
  const RequantLanes ro(m.out);
  const int32x4_t azp = vdupq_n_s32(a_zp);
  const int32x4_t bzp = vdupq_n_s32(b_zp);
  const int32x4_t ozp = vdupq_n_s32(out_zp);
  const int32x4_t lov = vdupq_n_s32(lo);
  const int32x4_t hiv = vdupq_n_s32(hi);
  constexpr int kShift = AddMultipliers::kLeftShift;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int16x8_t wa = vmovl_s8(vld1_s8(a + i));
    const int16x8_t wb = vmovl_s8(vld1_s8(b + i));
    int32x4_t r[2];
    for (int half = 0; half < 2; ++half) {
      const int16x4_t ha = half == 0 ? vget_low_s16(wa) : vget_high_s16(wa);
      const int16x4_t hb = half == 0 ? vget_low_s16(wb) : vget_high_s16(wb);
      const int32x4_t av = vshlq_n_s32(vsubq_s32(vmovl_s16(ha), azp), kShift);
      const int32x4_t bv = vshlq_n_s32(vsubq_s32(vmovl_s16(hb), bzp), kShift);
      r[half] = vaddq_s32(ro(vaddq_s32(ra(av), rb(bv))), ozp);
    }
    store_8_i8(r[0], r[1], lov, hiv, out + i);
  }
  add_row_scalar(a + i, b + i, n - i, a_zp, b_zp, m, out_zp, lo, hi, out + i);
}

template <int ROWS>
void gemm_tile_16(const std::int8_t* a, const std::int8_t* bt, int n, int k,
                  int j0, std::int32_t* acc) {
  int32x4_t acc_v[ROWS][4];
  for (int r = 0; r < ROWS; ++r) {
    for (int q = 0; q < 4; ++q) acc_v[r][q] = vdupq_n_s32(0);
  }
  for (int kk = 0; kk < k; ++kk) {
    const int8x16_t w8 = vld1q_s8(bt + static_cast<std::size_t>(kk) * n + j0);
    const int16x8_t wlo = vmovl_s8(vget_low_s8(w8));
    const int16x8_t whi = vmovl_s8(vget_high_s8(w8));
    for (int r = 0; r < ROWS; ++r) {
      const int16x4_t va =
          vdup_n_s16(static_cast<std::int16_t>(a[static_cast<std::size_t>(r) * k + kk]));
      acc_v[r][0] = vmlal_s16(acc_v[r][0], vget_low_s16(wlo), va);
      acc_v[r][1] = vmlal_s16(acc_v[r][1], vget_high_s16(wlo), va);
      acc_v[r][2] = vmlal_s16(acc_v[r][2], vget_low_s16(whi), va);
      acc_v[r][3] = vmlal_s16(acc_v[r][3], vget_high_s16(whi), va);
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    std::int32_t* out = acc + static_cast<std::size_t>(r) * n + j0;
    for (int q = 0; q < 4; ++q) vst1q_s32(out + 4 * q, acc_v[r][q]);
  }
}

void gemm_block_i8_neon(const std::int8_t* a, const std::int8_t* bt, int rows,
                        int n, int k, std::int32_t* acc) {
  int j0 = 0;
  for (; j0 + 16 <= n; j0 += 16) {
    switch (rows) {
      case 4:
        gemm_tile_16<4>(a, bt, n, k, j0, acc);
        break;
      case 3:
        gemm_tile_16<3>(a, bt, n, k, j0, acc);
        break;
      case 2:
        gemm_tile_16<2>(a, bt, n, k, j0, acc);
        break;
      default:
        gemm_tile_16<1>(a, bt, n, k, j0, acc);
        break;
    }
  }
  for (int r = 0; r < rows; ++r) {
    const std::int8_t* ar = a + static_cast<std::size_t>(r) * k;
    for (int j = j0; j < n; ++j) {
      const std::int8_t* bp = bt + j;
      std::int32_t s = 0;
      for (int kk = 0; kk < k; ++kk) {
        s += static_cast<std::int32_t>(ar[kk]) *
             bp[static_cast<std::size_t>(kk) * n];
      }
      acc[static_cast<std::size_t>(r) * n + j] = s;
    }
  }
}

void dw_accumulate_neon(const std::int8_t* x, const std::int8_t* w, int c,
                        std::int32_t zp, std::int32_t* acc) {
  int i = 0;
  // (x - zp) must fit int16 for the widening MAC; activation zero points
  // live in the int8 range, but guard anyway so the contract is total.
  if (zp >= -32000 && zp <= 32000) {
    const int16x8_t zpv = vdupq_n_s16(static_cast<std::int16_t>(zp));
    for (; i + 8 <= c; i += 8) {
      const int16x8_t xv = vsubq_s16(vmovl_s8(vld1_s8(x + i)), zpv);
      const int16x8_t wv = vmovl_s8(vld1_s8(w + i));
      int32x4_t a0 = vld1q_s32(acc + i);
      int32x4_t a1 = vld1q_s32(acc + i + 4);
      a0 = vmlal_s16(a0, vget_low_s16(xv), vget_low_s16(wv));
      a1 = vmlal_s16(a1, vget_high_s16(xv), vget_high_s16(wv));
      vst1q_s32(acc + i, a0);
      vst1q_s32(acc + i + 4, a1);
    }
  }
  for (; i < c; ++i) {
    acc[i] += (static_cast<std::int32_t>(x[i]) - zp) * w[i];
  }
}

std::int64_t unpack_body_neon(const std::uint8_t* bytes, std::int64_t nbytes,
                              int bits, std::int8_t* dst) {
  std::int64_t consumed = 0;
  if (bits == 4) {
    const uint8x16_t mask = vdupq_n_u8(0x0F);
    const int8x16_t sign = vdupq_n_s8(0x08);
    for (; consumed + 16 <= nbytes; consumed += 16) {
      const uint8x16_t b = vld1q_u8(bytes + consumed);
      const uint8x16_t lo = vandq_u8(b, mask);
      const uint8x16_t hi = vshrq_n_u8(b, 4);
      const uint8x16x2_t e = vzipq_u8(lo, hi);  // field 0 = low nibble
      for (int half = 0; half < 2; ++half) {
        int8x16_t v = vreinterpretq_s8_u8(e.val[half]);
        v = vsubq_s8(veorq_s8(v, sign), sign);
        vst1q_s8(dst, v);
        dst += 16;
      }
    }
    return consumed;
  }
  if (bits == 2) {
    const uint8x16_t mask = vdupq_n_u8(0x03);
    const int8x16_t sign = vdupq_n_s8(0x02);
    for (; consumed + 16 <= nbytes; consumed += 16) {
      const uint8x16_t b = vld1q_u8(bytes + consumed);
      const uint8x16_t v0 = vandq_u8(b, mask);
      const uint8x16_t v1 = vandq_u8(vshrq_n_u8(b, 2), mask);
      const uint8x16_t v2 = vandq_u8(vshrq_n_u8(b, 4), mask);
      const uint8x16_t v3 = vshrq_n_u8(b, 6);
      const uint8x16x2_t t01 = vzipq_u8(v0, v1);
      const uint8x16x2_t t23 = vzipq_u8(v2, v3);
      for (int half = 0; half < 2; ++half) {
        const uint16x8x2_t e =
            vzipq_u16(vreinterpretq_u16_u8(t01.val[half]),
                      vreinterpretq_u16_u8(t23.val[half]));
        for (int quarter = 0; quarter < 2; ++quarter) {
          int8x16_t v = vreinterpretq_s8_u16(e.val[quarter]);
          v = vsubq_s8(veorq_s8(v, sign), sign);
          vst1q_s8(dst, v);
          dst += 16;
        }
      }
    }
    return consumed;
  }
  return 0;
}

const SimdKernels kNeon = {
    "neon",    &gemm_block_i8_neon, &requant_i32_row_neon,
    &dw_accumulate_neon, &requant_i8_row_neon, &unpack_body_neon,
    &add_row_neon,
};

}  // namespace

const SimdKernels* neon_kernels() { return &kNeon; }

}  // namespace qmcu::nn::ops::simd

#else  // no NEON

namespace qmcu::nn::ops::simd {
const SimdKernels* neon_kernels() { return nullptr; }
}  // namespace qmcu::nn::ops::simd

#endif
