// requant_lanes_avx2.h — the AVX2 int8 output stage shared by the AVX2 and
// AVX-VNNI microkernel TUs: Q31 SRDHM, rounding shift, zero point, clamp,
// pack/store, plus the two places a GEMM tile can put its finished
// accumulators (int32 rows, or requantized int8 rows).
//
// Include only from TUs compiled with -mavx2 (gemm_int8_avx2.cpp,
// gemm_int8_vnni.cpp). Everything below sits in an unnamed namespace on
// purpose: each TU gets a private copy compiled with its own flags, so the
// linker can never merge the base AVX2 table's helpers with a copy built
// under -mavxvnni.
#pragma once

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

#include "nn/ops/requantize.h"
#include "nn/ops/simd/simd_kernels.h"

namespace qmcu::nn::ops::simd {
namespace {

// saturating_rounding_doubling_high_mul(x, m) for a positive Q31 mantissa:
// the low 32 bits of (x·m + 2^30) >> 31, with no sign test. The scalar
// form is trunc((x·m + nudge) / 2^31), nudge = 2^30 when x·m >= 0 and
// 1 - 2^30 otherwise. For x·m >= 0 the sum is non-negative, so trunc is
// floor. For x·m < 0 the sum is negative and trunc(s / 2^31) =
// floor((s + 2^31 - 1) / 2^31); s + 2^31 - 1 = x·m + 2^30 again. Either
// way the result is floor((x·m + 2^30) / 2^31), which fits int32, so the
// low 32 bits of a logical 64-bit shift are exact. The one saturating
// input pair (x == m == INT32_MIN) needs a negative mantissa, which
// quantize_multiplier never produces.
inline __m256i srdhm_q31(__m256i x, __m256i mant) {
  const __m256i nudge = _mm256_set1_epi64x(std::int64_t{1} << 30);
  // Even lanes multiply in place; odd lanes are moved down first. mant is
  // a broadcast, so its even lanes already hold the mantissa.
  const __m256i ev = _mm256_add_epi64(_mm256_mul_epi32(x, mant), nudge);
  const __m256i od = _mm256_add_epi64(
      _mm256_mul_epi32(_mm256_srli_epi64(x, 32), mant), nudge);
  // Bits 31..62 of each sum are the quotient: shift the even sums down by
  // 31 into the low half, the odd sums up by 1 into the high half.
  return _mm256_blend_epi32(_mm256_srli_epi64(ev, 31),
                            _mm256_slli_epi64(od, 1), 0xAA);
}

// apply_multiplier for one multiplier whose right shift lies in [0, 31]
// (vector_shift): SRDHM, then rounding_divide_by_pot (round half away from
// zero). A zero shift degenerates to the identity exactly like the scalar:
// mask 0 => remainder 0 => no increment.
class Rescale {
 public:
  explicit Rescale(const FixedPointMultiplier& m)
      : mant_(_mm256_set1_epi32(m.mantissa)),
        mask_(_mm256_set1_epi32(
            static_cast<std::int32_t>((1u << m.right_shift) - 1))),
        half_(_mm256_srli_epi32(mask_, 1)),
        shift_(_mm_cvtsi32_si128(m.right_shift)) {}

  __m256i operator()(__m256i x) const {
    const __m256i q = srdhm_q31(x, mant_);
    const __m256i remainder = _mm256_and_si256(q, mask_);
    // threshold = mask >> 1, +1 for negative lanes (srai 31 is -1 there).
    const __m256i threshold = _mm256_sub_epi32(half_, _mm256_srai_epi32(q, 31));
    return _mm256_sub_epi32(_mm256_sra_epi32(q, shift_),
                            _mm256_cmpgt_epi32(remainder, threshold));
  }

 private:
  __m256i mant_;
  __m256i mask_;
  __m256i half_;
  __m128i shift_;
};

// Clamps two 8-lane int32 vectors and stores them as 16 consecutive int8.
// After the clamp every lane is in [-128, 127], so packs never saturates.
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

// Clamps one int32 vector and stores it as 8 consecutive int8.
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

// out = clamp(apply_multiplier(acc, m) + out_zp, lo, hi) as int8, for any
// multiplier: lanes whose shift vector_shift rejects spill to the scalar
// apply_multiplier, so every caller is exact for every multiplier.
class OutputStage {
 public:
  OutputStage(const FixedPointMultiplier& m, std::int32_t out_zp,
              std::int32_t lo, std::int32_t hi)
      : m_(m),
        vec_(vector_shift(m)),
        rescale_(vec_ ? m : FixedPointMultiplier{m.mantissa, 0}),
        zp_(_mm256_set1_epi32(out_zp)),
        lo_(_mm256_set1_epi32(lo)),
        hi_(_mm256_set1_epi32(hi)),
        out_zp_(out_zp),
        lo_s_(lo),
        hi_s_(hi) {}

  [[nodiscard]] std::int8_t scalar(std::int32_t acc) const {
    return static_cast<std::int8_t>(
        clamp_to(apply_multiplier(acc, m_) + out_zp_, lo_s_, hi_s_));
  }

  void store_scalar(const std::int32_t* acc, int count,
                    std::int8_t* out) const {
    for (int j = 0; j < count; ++j) out[j] = scalar(acc[j]);
  }

  // 16 accumulators (v0: lanes 0..7, v1: lanes 8..15) -> out[0..16).
  void store16(__m256i v0, __m256i v1, std::int8_t* out) const {
    if (!vec_) {
      alignas(32) std::int32_t t[16];
      _mm256_store_si256(reinterpret_cast<__m256i*>(t), v0);
      _mm256_store_si256(reinterpret_cast<__m256i*>(t + 8), v1);
      store_scalar(t, 16, out);
      return;
    }
    store_16_i8(lanes(v0), lanes(v1), lo_, hi_, out);
  }

  // 8 accumulators -> out[0..8).
  void store8(__m256i v, std::int8_t* out) const {
    if (!vec_) {
      alignas(32) std::int32_t t[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(t), v);
      store_scalar(t, 8, out);
      return;
    }
    store_8_i8(lanes(v), lo_, hi_, out);
  }

 private:
  [[nodiscard]] __m256i lanes(__m256i v) const {
    return _mm256_add_epi32(rescale_(v), zp_);
  }

  FixedPointMultiplier m_;
  bool vec_;
  Rescale rescale_;
  __m256i zp_;
  __m256i lo_;
  __m256i hi_;
  std::int32_t out_zp_;
  std::int32_t lo_s_;
  std::int32_t hi_s_;
};

// Where a GEMM tile puts row r's finished accumulators for columns
// [j0, j0 + 16), [j0, j0 + 8) or a scalar tail of jn < 8 columns.
//
// AccRows: raw int32 rows of stride n (gemm_block_i8's contract).
struct AccRows {
  std::int32_t* acc;
  int n;

  [[nodiscard]] std::int32_t* at(int r, int j0) const {
    return acc + static_cast<std::size_t>(r) * n + j0;
  }
  void row16(int r, int j0, __m256i v0, __m256i v1) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(at(r, j0)), v0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(at(r, j0) + 8), v1);
  }
  void row8(int r, int j0, __m256i v) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(at(r, j0)), v);
  }
  void row_tail(int r, int j0, const std::int32_t* t, int jn) const {
    for (int j = 0; j < jn; ++j) at(r, j0)[j] = t[j];
  }
};

// QuantRows: adds the per-column offset row, requantizes and stores int8
// rows of stride n (gemm_requant's contract) — on the 16- and 8-column
// register tiles the accumulators never leave registers.
struct QuantRows {
  const std::int32_t* offset;
  OutputStage stage;
  std::int8_t* out;
  int n;

  [[nodiscard]] std::int8_t* at(int r, int j0) const {
    return out + static_cast<std::size_t>(r) * n + j0;
  }
  [[nodiscard]] __m256i off(int j0) const {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offset + j0));
  }
  void row16(int r, int j0, __m256i v0, __m256i v1) const {
    stage.store16(_mm256_add_epi32(v0, off(j0)),
                  _mm256_add_epi32(v1, off(j0 + 8)), at(r, j0));
  }
  void row8(int r, int j0, __m256i v) const {
    stage.store8(_mm256_add_epi32(v, off(j0)), at(r, j0));
  }
  void row_tail(int r, int j0, const std::int32_t* t, int jn) const {
    for (int j = 0; j < jn; ++j) {
      at(r, j0)[j] = stage.scalar(t[j] + offset[j0 + j]);
    }
  }
};

}  // namespace
}  // namespace qmcu::nn::ops::simd

#endif  // __AVX2__
