// gemm_int8_avx2.cpp — AVX2 microkernels for the Simd tier.
//
// This TU is compiled with -mavx2 (see CMakeLists.txt) and its functions
// are only ever reached through the runtime-dispatched table, so the rest
// of the binary stays at the base ISA. Everything here is integer and must
// be bit-identical to the scalar kernels — comments on each function state
// why the lane arithmetic is exact, not merely fast.
#include "nn/ops/simd/simd_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

#include "nn/ops/lut/lut_simd_bodies.h"

namespace qmcu::nn::ops::simd {

namespace {

// ---------------------------------------------------------------------------
// Fixed-point requantization lanes.
//
// apply_multiplier() is SRDHM (saturating rounding doubling high multiply)
// followed by a rounding right shift. The scalar SRDHM computes
//   (a*b + nudge) / 2^31            nudge = ab >= 0 ? 2^30 : 1 - 2^30
// with C++ *truncating* division, so the vector version adds 2^31 - 1 to
// negative sums before the logical shift (floor + fix = trunc). The
// saturation corner (a == b == INT32_MIN) cannot trigger here: the Q31
// mantissa produced by quantize_multiplier is always positive. Taking only
// the low 32 bits of each 64-bit lane after the shift is exact because the
// true quotient fits in int32.

inline __m256i srdhm_q31(__m256i x, __m256i mant) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i nudge_pos = _mm256_set1_epi64x(std::int64_t{1} << 30);
  const __m256i nudge_neg = _mm256_set1_epi64x(1 - (std::int64_t{1} << 30));
  const __m256i trunc_fix = _mm256_set1_epi64x((std::int64_t{1} << 31) - 1);

  __m256i ev = _mm256_mul_epi32(x, mant);  // lanes 0,2,4,6 as i64 products
  __m256i od = _mm256_mul_epi32(_mm256_srli_epi64(x, 32),
                                _mm256_srli_epi64(mant, 32));  // lanes 1,3,5,7

  ev = _mm256_add_epi64(
      ev, _mm256_blendv_epi8(nudge_pos, nudge_neg,
                             _mm256_cmpgt_epi64(zero, ev)));
  od = _mm256_add_epi64(
      od, _mm256_blendv_epi8(nudge_pos, nudge_neg,
                             _mm256_cmpgt_epi64(zero, od)));
  // Truncating divide by 2^31: floor-shift negative lanes up by 2^31 - 1.
  ev = _mm256_add_epi64(
      ev, _mm256_and_si256(_mm256_cmpgt_epi64(zero, ev), trunc_fix));
  od = _mm256_add_epi64(
      od, _mm256_and_si256(_mm256_cmpgt_epi64(zero, od), trunc_fix));
  ev = _mm256_srli_epi64(ev, 31);
  od = _mm256_slli_epi64(_mm256_srli_epi64(od, 31), 32);
  // Even 32-bit lanes from ev (their high garbage sits in odd positions,
  // masked out by the blend), odd lanes from od.
  return _mm256_blend_epi32(ev, od, 0xAA);
}

// rounding_divide_by_pot: round half away from zero, exponent in [0, 31].
// exponent == 0 degenerates to the identity exactly like the scalar
// (mask = 0 => remainder 0 => no increment).
inline __m256i rounding_rshift(__m256i x, int exponent) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i mask =
      _mm256_set1_epi32(static_cast<std::int32_t>((1u << exponent) - 1));
  const __m256i remainder = _mm256_and_si256(x, mask);
  // threshold = mask >> 1, +1 for negative lanes (cmpgt mask is -1).
  __m256i threshold = _mm256_srli_epi32(mask, 1);
  threshold = _mm256_sub_epi32(threshold, _mm256_cmpgt_epi32(zero, x));
  __m256i result = _mm256_srai_epi32(x, exponent);
  return _mm256_sub_epi32(result,
                          _mm256_cmpgt_epi32(remainder, threshold));
}

// Clamps two 8-lane int32 vectors (already in [-128, 127] by the clamp) and
// stores them as 16 consecutive int8. packs saturation never engages.
inline void store_16_i8(__m256i v0, __m256i v1, __m256i lo, __m256i hi,
                        std::int8_t* out) {
  v0 = _mm256_min_epi32(_mm256_max_epi32(v0, lo), hi);
  v1 = _mm256_min_epi32(_mm256_max_epi32(v1, lo), hi);
  __m256i p16 = _mm256_packs_epi32(v0, v1);
  // packs interleaves per 128-bit half; 0xD8 restores sequential order.
  p16 = _mm256_permute4x64_epi64(p16, 0xD8);
  const __m128i p8 = _mm_packs_epi16(_mm256_castsi256_si128(p16),
                                     _mm256_extracti128_si256(p16, 1));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), p8);
}

// The 8-lane step before a row's scalar tail: clamp one int32 vector and
// store it as 8 consecutive int8.
inline void store_8_i8(__m256i v, __m256i lo, __m256i hi, std::int8_t* out) {
  v = _mm256_min_epi32(_mm256_max_epi32(v, lo), hi);
  const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                      _mm256_extracti128_si256(v, 1));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out),
                   _mm_packs_epi16(p16, p16));
}

inline __m256i load_8_i8_as_i32(const std::int8_t* p) {
  return _mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

// Lanes [j, n) of requant_i32_row through apply_multiplier.
void requant_i32_row_tail(const std::int32_t* acc, const std::int32_t* offset,
                          int j, int n, const FixedPointMultiplier& m,
                          std::int32_t out_zp, std::int32_t lo,
                          std::int32_t hi, std::int8_t* out) {
  for (; j < n; ++j) {
    const std::int32_t total = acc[j] + (offset != nullptr ? offset[j] : 0);
    out[j] = static_cast<std::int8_t>(
        clamp_to(apply_multiplier(total, m) + out_zp, lo, hi));
  }
}

// ---------------------------------------------------------------------------
// GEMM microkernel: ROWS x 16 tile over the k-major panel.
//
// Two k steps per iteration: each 32-bit lane of the broadcast holds the
// int16 pair (a[kk], a[kk+1]) and each weight lane the matching pair
// (bt[kk][j], bt[kk+1][j]) — _mm256_madd_epi16 then produces the exact
// int32 pair-sum (|product| <= 127*127, no i16 saturation path exists in
// madd; the pair sum is a widening add). Accumulation order over k differs
// from scalar, which is irrelevant: integer sums are exact.
//
// unpacklo/hi interleave within 128-bit halves, so the two accumulators
// hold column groups {0..3, 8..11} and {4..7, 12..15}; permute2x128 at
// store time restores sequential order.

template <int ROWS>
void gemm_tile_16(const std::int8_t* a, const std::int8_t* bt, int n, int k,
                  int j0, std::int32_t* acc) {
  __m256i acc_lo[ROWS];
  __m256i acc_hi[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    acc_lo[r] = _mm256_setzero_si256();
    acc_hi[r] = _mm256_setzero_si256();
  }
  int kk = 0;
  for (; kk + 2 <= k; kk += 2) {
    const std::int8_t* b0 = bt + static_cast<std::size_t>(kk) * n + j0;
    const __m256i w0 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0)));
    const __m256i w1 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0 + n)));
    const __m256i wlo = _mm256_unpacklo_epi16(w0, w1);
    const __m256i whi = _mm256_unpackhi_epi16(w0, w1);
    for (int r = 0; r < ROWS; ++r) {
      const std::int8_t* ar = a + static_cast<std::size_t>(r) * k;
      const std::uint32_t pair =
          (static_cast<std::uint32_t>(
               static_cast<std::uint16_t>(static_cast<std::int16_t>(ar[kk + 1])))
           << 16) |
          static_cast<std::uint16_t>(static_cast<std::int16_t>(ar[kk]));
      const __m256i p = _mm256_set1_epi32(static_cast<std::int32_t>(pair));
      acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(p, wlo));
      acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(p, whi));
    }
  }
  if (kk < k) {  // odd k: pair with an explicit zero lane
    const std::int8_t* b0 = bt + static_cast<std::size_t>(kk) * n + j0;
    const __m256i w0 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0)));
    const __m256i z = _mm256_setzero_si256();
    const __m256i wlo = _mm256_unpacklo_epi16(w0, z);
    const __m256i whi = _mm256_unpackhi_epi16(w0, z);
    for (int r = 0; r < ROWS; ++r) {
      const std::int8_t* ar = a + static_cast<std::size_t>(r) * k;
      const __m256i p = _mm256_set1_epi32(
          static_cast<std::int32_t>(static_cast<std::uint32_t>(
              static_cast<std::uint16_t>(static_cast<std::int16_t>(ar[kk])))));
      acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(p, wlo));
      acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(p, whi));
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    std::int32_t* out = acc + static_cast<std::size_t>(r) * n + j0;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8),
                        _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x31));
  }
}

// 8-column tile for panel widths between 8 and 15: the same exact pair-madd
// over 128-bit lanes (whose unpack order is already sequential, so no
// permute is needed at store time).
template <int ROWS>
void gemm_tile_8(const std::int8_t* a, const std::int8_t* bt, int n, int k,
                 int j0, std::int32_t* acc) {
  __m128i acc_lo[ROWS];
  __m128i acc_hi[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    acc_lo[r] = _mm_setzero_si128();
    acc_hi[r] = _mm_setzero_si128();
  }
  int kk = 0;
  for (; kk + 2 <= k; kk += 2) {
    const std::int8_t* b0 = bt + static_cast<std::size_t>(kk) * n + j0;
    const __m128i w0 = _mm_cvtepi8_epi16(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b0)));
    const __m128i w1 = _mm_cvtepi8_epi16(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b0 + n)));
    const __m128i wlo = _mm_unpacklo_epi16(w0, w1);
    const __m128i whi = _mm_unpackhi_epi16(w0, w1);
    for (int r = 0; r < ROWS; ++r) {
      const std::int8_t* ar = a + static_cast<std::size_t>(r) * k;
      const std::uint32_t pair =
          (static_cast<std::uint32_t>(
               static_cast<std::uint16_t>(static_cast<std::int16_t>(ar[kk + 1])))
           << 16) |
          static_cast<std::uint16_t>(static_cast<std::int16_t>(ar[kk]));
      const __m128i p = _mm_set1_epi32(static_cast<std::int32_t>(pair));
      acc_lo[r] = _mm_add_epi32(acc_lo[r], _mm_madd_epi16(p, wlo));
      acc_hi[r] = _mm_add_epi32(acc_hi[r], _mm_madd_epi16(p, whi));
    }
  }
  if (kk < k) {
    const std::int8_t* b0 = bt + static_cast<std::size_t>(kk) * n + j0;
    const __m128i w0 = _mm_cvtepi8_epi16(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b0)));
    const __m128i z = _mm_setzero_si128();
    const __m128i wlo = _mm_unpacklo_epi16(w0, z);
    const __m128i whi = _mm_unpackhi_epi16(w0, z);
    for (int r = 0; r < ROWS; ++r) {
      const std::int8_t* ar = a + static_cast<std::size_t>(r) * k;
      const __m128i p = _mm_set1_epi32(
          static_cast<std::int32_t>(static_cast<std::uint32_t>(
              static_cast<std::uint16_t>(static_cast<std::int16_t>(ar[kk])))));
      acc_lo[r] = _mm_add_epi32(acc_lo[r], _mm_madd_epi16(p, wlo));
      acc_hi[r] = _mm_add_epi32(acc_hi[r], _mm_madd_epi16(p, whi));
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    std::int32_t* out = acc + static_cast<std::size_t>(r) * n + j0;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), acc_lo[r]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4), acc_hi[r]);
  }
}

void gemm_block_i8_avx2(const std::int8_t* a, const std::int8_t* bt, int rows,
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
  if (j0 + 8 <= n) {
    switch (rows) {
      case 4:
        gemm_tile_8<4>(a, bt, n, k, j0, acc);
        break;
      case 3:
        gemm_tile_8<3>(a, bt, n, k, j0, acc);
        break;
      case 2:
        gemm_tile_8<2>(a, bt, n, k, j0, acc);
        break;
      default:
        gemm_tile_8<1>(a, bt, n, k, j0, acc);
        break;
    }
    j0 += 8;
  }
  // Column tail (< 8): the scalar register-tile shape of gemm_int8.cpp —
  // row-major panel walk, per-row accumulator locals, same exact sums.
  if (j0 < n) {
    const int jn = n - j0;
    for (int r = 0; r < rows; ++r) {
      const std::int8_t* ar = a + static_cast<std::size_t>(r) * k;
      std::int32_t t[8] = {0};
      const std::int8_t* bp = bt + j0;
      for (int kk = 0; kk < k; ++kk, bp += n) {
        const std::int32_t v = ar[kk];
        for (int j = 0; j < jn; ++j) t[j] += v * bp[j];
      }
      for (int j = 0; j < jn; ++j) {
        acc[static_cast<std::size_t>(r) * n + j0 + j] = t[j];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Requantize epilogues.

void requant_i32_row_avx2(const std::int32_t* acc, const std::int32_t* offset,
                          int n, FixedPointMultiplier m, std::int32_t out_zp,
                          std::int32_t lo, std::int32_t hi, std::int8_t* out) {
  if (!vector_shift(m)) {
    requant_i32_row_tail(acc, offset, 0, n, m, out_zp, lo, hi, out);
    return;
  }
  const __m256i mant = _mm256_set1_epi32(m.mantissa);
  const __m256i zp = _mm256_set1_epi32(out_zp);
  const __m256i lov = _mm256_set1_epi32(lo);
  const __m256i hiv = _mm256_set1_epi32(hi);
  const auto lanes = [&](int j) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + j));
    if (offset != nullptr) {
      v = _mm256_add_epi32(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offset + j)));
    }
    return _mm256_add_epi32(rounding_rshift(srdhm_q31(v, mant), m.right_shift),
                            zp);
  };
  int j = 0;
  for (; j + 16 <= n; j += 16) {
    store_16_i8(lanes(j), lanes(j + 8), lov, hiv, out + j);
  }
  if (j + 8 <= n) {
    store_8_i8(lanes(j), lov, hiv, out + j);
    j += 8;
  }
  requant_i32_row_tail(acc, offset, j, n, m, out_zp, lo, hi, out);
}

void requant_i8_row_avx2(const std::int8_t* src, std::int64_t n,
                         std::int32_t in_zp, int left_shift,
                         FixedPointMultiplier m, std::int32_t out_zp,
                         std::int32_t lo, std::int32_t hi, std::int8_t* dst) {
  if (!vector_shift(m)) {
    requant_i8_row_scalar(src, n, in_zp, left_shift, m, out_zp, lo, hi, dst);
    return;
  }
  const __m256i mant = _mm256_set1_epi32(m.mantissa);
  const __m256i izp = _mm256_set1_epi32(in_zp);
  const __m256i ozp = _mm256_set1_epi32(out_zp);
  const __m256i lov = _mm256_set1_epi32(lo);
  const __m256i hiv = _mm256_set1_epi32(hi);
  // centered << left_shift == centered * (1 << left_shift): the
  // requantizer chose the shift so the product cannot overflow int32.
  const auto lanes = [&](std::int64_t i) {
    const __m256i c = _mm256_slli_epi32(
        _mm256_sub_epi32(load_8_i8_as_i32(src + i), izp), left_shift);
    return _mm256_add_epi32(rounding_rshift(srdhm_q31(c, mant), m.right_shift),
                            ozp);
  };
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    store_16_i8(lanes(i), lanes(i + 8), lov, hiv, dst + i);
  }
  if (i + 8 <= n) {
    store_8_i8(lanes(i), lov, hiv, dst + i);
    i += 8;
  }
  requant_i8_row_scalar(src + i, n - i, in_zp, left_shift, m, out_zp, lo, hi,
                        dst + i);
}

// Residual Add: each operand runs the i8 requantize lane sequence with its
// own multiplier (left shift 20 — |a - zp| <= 255, so the shifted value
// stays below 2^28), the int32 sum of two such terms cannot overflow, and
// the sum takes one more SRDHM + rounding shift into the output params.
void add_row_avx2(const std::int8_t* a, const std::int8_t* b, std::int64_t n,
                  std::int32_t a_zp, std::int32_t b_zp,
                  const AddMultipliers& m, std::int32_t out_zp,
                  std::int32_t lo, std::int32_t hi, std::int8_t* out) {
  if (!vector_shift(m.lhs) || !vector_shift(m.rhs) || !vector_shift(m.out)) {
    add_row_scalar(a, b, n, a_zp, b_zp, m, out_zp, lo, hi, out);
    return;
  }
  const __m256i mant_a = _mm256_set1_epi32(m.lhs.mantissa);
  const __m256i mant_b = _mm256_set1_epi32(m.rhs.mantissa);
  const __m256i mant_o = _mm256_set1_epi32(m.out.mantissa);
  const __m256i azp = _mm256_set1_epi32(a_zp);
  const __m256i bzp = _mm256_set1_epi32(b_zp);
  const __m256i ozp = _mm256_set1_epi32(out_zp);
  const __m256i lov = _mm256_set1_epi32(lo);
  const __m256i hiv = _mm256_set1_epi32(hi);
  constexpr int kShift = AddMultipliers::kLeftShift;
  const auto lanes = [&](std::int64_t i) {
    const __m256i av = _mm256_slli_epi32(
        _mm256_sub_epi32(load_8_i8_as_i32(a + i), azp), kShift);
    const __m256i bv = _mm256_slli_epi32(
        _mm256_sub_epi32(load_8_i8_as_i32(b + i), bzp), kShift);
    const __m256i sum = _mm256_add_epi32(
        rounding_rshift(srdhm_q31(av, mant_a), m.lhs.right_shift),
        rounding_rshift(srdhm_q31(bv, mant_b), m.rhs.right_shift));
    return _mm256_add_epi32(
        rounding_rshift(srdhm_q31(sum, mant_o), m.out.right_shift), ozp);
  };
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    store_16_i8(lanes(i), lanes(i + 8), lov, hiv, out + i);
  }
  if (i + 8 <= n) {
    store_8_i8(lanes(i), lov, hiv, out + i);
    i += 8;
  }
  add_row_scalar(a + i, b + i, n - i, a_zp, b_zp, m, out_zp, lo, hi, out + i);
}

// ---------------------------------------------------------------------------
// Depthwise channel MAC.

void dw_accumulate_avx2(const std::int8_t* x, const std::int8_t* w, int c,
                        std::int32_t zp, std::int32_t* acc) {
  const __m256i zpv = _mm256_set1_epi32(zp);
  int i = 0;
  for (; i + 8 <= c; i += 8) {
    const __m256i xv = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i)));
    const __m256i wv = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w + i)));
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    a = _mm256_add_epi32(
        a, _mm256_mullo_epi32(_mm256_sub_epi32(xv, zpv), wv));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a);
  }
  for (; i < c; ++i) {
    acc[i] += (static_cast<std::int32_t>(x[i]) - zp) * w[i];
  }
}

// ---------------------------------------------------------------------------
// Sub-byte unpack (quant/bitpack.h wire layout: little-endian fields,
// two's-complement sign in the field width). 16 packed bytes per step.

std::int64_t unpack_body_avx2(const std::uint8_t* bytes, std::int64_t nbytes,
                              int bits, std::int8_t* dst) {
  std::int64_t consumed = 0;
  if (bits == 4) {
    const __m128i mask = _mm_set1_epi8(0x0F);
    const __m128i sign = _mm_set1_epi8(0x08);
    for (; consumed + 16 <= nbytes; consumed += 16) {
      const __m128i b = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(bytes + consumed));
      const __m128i lo = _mm_and_si128(b, mask);
      const __m128i hi = _mm_and_si128(_mm_srli_epi16(b, 4), mask);
      // Field 0 is the low nibble: interleave low-first.
      __m128i e0 = _mm_unpacklo_epi8(lo, hi);
      __m128i e1 = _mm_unpackhi_epi8(lo, hi);
      // Sign-extend the 4-bit field: (v ^ 8) - 8.
      e0 = _mm_sub_epi8(_mm_xor_si128(e0, sign), sign);
      e1 = _mm_sub_epi8(_mm_xor_si128(e1, sign), sign);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), e0);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16), e1);
      dst += 32;
    }
    return consumed;
  }
  if (bits == 2) {
    const __m128i mask = _mm_set1_epi8(0x03);
    const __m128i sign = _mm_set1_epi8(0x02);
    for (; consumed + 16 <= nbytes; consumed += 16) {
      const __m128i b = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(bytes + consumed));
      const __m128i v0 = _mm_and_si128(b, mask);
      const __m128i v1 = _mm_and_si128(_mm_srli_epi16(b, 2), mask);
      const __m128i v2 = _mm_and_si128(_mm_srli_epi16(b, 4), mask);
      const __m128i v3 = _mm_and_si128(_mm_srli_epi16(b, 6), mask);
      const __m128i t01lo = _mm_unpacklo_epi8(v0, v1);
      const __m128i t01hi = _mm_unpackhi_epi8(v0, v1);
      const __m128i t23lo = _mm_unpacklo_epi8(v2, v3);
      const __m128i t23hi = _mm_unpackhi_epi8(v2, v3);
      __m128i e[4];
      e[0] = _mm_unpacklo_epi16(t01lo, t23lo);
      e[1] = _mm_unpackhi_epi16(t01lo, t23lo);
      e[2] = _mm_unpacklo_epi16(t01hi, t23hi);
      e[3] = _mm_unpackhi_epi16(t01hi, t23hi);
      for (auto& v : e) {
        v = _mm_sub_epi8(_mm_xor_si128(v, sign), sign);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), v);
        dst += 16;
      }
    }
    return consumed;
  }
  return 0;
}

const SimdKernels kAvx2 = {
    "avx2",          &gemm_block_i8_avx2, &requant_i32_row_avx2,
    &dw_accumulate_avx2, &requant_i8_row_avx2, &unpack_body_avx2,
    &lut::lut_gemm_block_avx2, &add_row_avx2,
};

}  // namespace

const SimdKernels* avx2_kernels() { return &kAvx2; }

}  // namespace qmcu::nn::ops::simd

#else  // !__AVX2__

namespace qmcu::nn::ops::simd {
const SimdKernels* avx2_kernels() { return nullptr; }
}  // namespace qmcu::nn::ops::simd

#endif
