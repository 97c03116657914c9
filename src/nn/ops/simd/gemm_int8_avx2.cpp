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

#include "nn/ops/simd/dw_tiles_avx2.h"
#include "nn/ops/simd/gemm_tiles_avx2.h"

namespace qmcu::nn::ops::simd {

namespace {

// ---------------------------------------------------------------------------
// GEMM: the gemm_tiles_avx2.h policy of the pair-madd generation.
//
// Each 32-bit lane of the activation broadcast holds the int16 pair
// (a[kk], a[kk+1]) and each weight lane the matching pair (bt[kk][j],
// bt[kk+1][j]); _mm256_madd_epi16 then produces the exact int32 pair-sum
// (|product| <= 128*128, no i16 saturation path exists in madd; the pair
// sum is a widening add). Accumulation order over k differs from scalar,
// which is irrelevant: integer sums are exact.
struct PairMadd {
  static constexpr int kStep = 2;
  static constexpr std::int32_t kABias = 0;

  // 16 columns: unpacklo/hi interleave within 128-bit halves, so w[0]
  // holds column groups {0..3, 8..11} and w[1] {4..7, 12..15} (order16
  // restores column order). 8 columns: the 128-bit interleave is already
  // sequential. A row past t (odd k) pairs with an explicit zero lane.
  template <int V>
  static void weights(const std::int8_t* b0, int n, int t, __m256i* w) {
    const auto at = [&](int i) {
      return reinterpret_cast<const __m128i*>(
          b0 + static_cast<std::size_t>(i) * n);
    };
    if constexpr (V == 2) {
      const auto row = [&](int i) {
        if (i >= t) return _mm256_setzero_si256();
        return _mm256_cvtepi8_epi16(_mm_loadu_si128(at(i)));
      };
      const __m256i w0 = row(0);
      const __m256i w1 = row(1);
      w[0] = _mm256_unpacklo_epi16(w0, w1);
      w[1] = _mm256_unpackhi_epi16(w0, w1);
    } else {
      const auto row = [&](int i) {
        if (i >= t) return _mm_setzero_si128();
        return _mm_cvtepi8_epi16(_mm_loadl_epi64(at(i)));
      };
      const __m128i w0 = row(0);
      const __m128i w1 = row(1);
      w[0] = _mm256_set_m128i(_mm_unpackhi_epi16(w0, w1),
                              _mm_unpacklo_epi16(w0, w1));
    }
  }

  // vpbroadcastw of the byte pair from memory; sign-extending the 16
  // broadcast bytes gives (a[kk], a[kk+1]) in every 32-bit lane.
  static __m256i broadcast(const std::int8_t* a) {
    std::int16_t pair;
    std::memcpy(&pair, a, 2);
    return _mm256_cvtepi8_epi16(_mm_set1_epi16(pair));
  }

  // The odd k's last activation against the zero lane: (a[kk], 0).
  static __m256i broadcast_tail(const std::int8_t* a, int /*count*/) {
    return _mm256_set1_epi32(static_cast<std::int32_t>(
        static_cast<std::uint16_t>(static_cast<std::int16_t>(a[0]))));
  }

  static __m256i madd(__m256i acc, __m256i a, __m256i w) {
    return _mm256_add_epi32(acc, _mm256_madd_epi16(a, w));
  }

  static void order16(__m256i* lo, __m256i* hi) {
    const __m256i v0 = _mm256_permute2x128_si256(*lo, *hi, 0x20);
    *hi = _mm256_permute2x128_si256(*lo, *hi, 0x31);
    *lo = v0;
  }

  // Depthwise (dw_tiles_avx2.h): a tap pair per lane. Each tap's 32 lanes
  // widen to two int16 vectors (lanes 0..15, 16..31); unpacklo/hi_epi16
  // pairs them within 128-bit halves, so vector a holds lanes
  // {0..3, 8..11} + 4 * (a % 2) + 16 * (a / 2). |x * w| <= 128 * 128, so
  // the madd pair sum is exact.
  static constexpr int dw_slot_lane(int s) {
    const int a = s / 8;
    const int e = s % 8;
    return 16 * (a / 2) + 4 * (a % 2) + e % 4 + 8 * (e / 4);
  }

  static void dw_operands(const std::int8_t* const* tap, int t,
                          std::ptrdiff_t l0, __m256i* v) {
    const auto half = [&](int i, int h) {
      if (i >= t) return _mm256_setzero_si256();
      return _mm256_cvtepi8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(tap[i] + l0 + 16 * h)));
    };
    const __m256i a0 = half(0, 0);
    const __m256i b0 = half(1, 0);
    v[0] = _mm256_unpacklo_epi16(a0, b0);
    v[1] = _mm256_unpackhi_epi16(a0, b0);
    const __m256i a1 = half(0, 1);
    const __m256i b1 = half(1, 1);
    v[2] = _mm256_unpacklo_epi16(a1, b1);
    v[3] = _mm256_unpackhi_epi16(a1, b1);
  }

  // Dword 4 * h + a of the packed block starts at lane
  // 16 * (a / 2) + 4 * (a % 2) + 8 * h: swapping the middle two qwords
  // puts them in lane order.
  static __m256i dw_lane_order(__m256i b) {
    return _mm256_permute4x64_epi64(b, 0xD8);
  }
};

// ---------------------------------------------------------------------------
// Requantize epilogues (lanes in requant_lanes_avx2.h).

void requant_i32_row_avx2(const std::int32_t* acc, const std::int32_t* offset,
                          int n, FixedPointMultiplier m, std::int32_t out_zp,
                          std::int32_t lo, std::int32_t hi, std::int8_t* out) {
  const OutputStage stage(m, out_zp, lo, hi);
  const auto total = [&](int j) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + j));
    if (offset != nullptr) {
      v = _mm256_add_epi32(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offset + j)));
    }
    return v;
  };
  int j = 0;
  for (; j + 16 <= n; j += 16) stage.store16(total(j), total(j + 8), out + j);
  if (j + 8 <= n) {
    stage.store8(total(j), out + j);
    j += 8;
  }
  for (; j < n; ++j) {
    out[j] = stage.scalar(acc[j] + (offset != nullptr ? offset[j] : 0));
  }
}

void requant_i8_row_avx2(const std::int8_t* src, std::int64_t n,
                         std::int32_t in_zp, int left_shift,
                         FixedPointMultiplier m, std::int32_t out_zp,
                         std::int32_t lo, std::int32_t hi, std::int8_t* dst) {
  if (!vector_shift(m)) {
    requant_i8_row_scalar(src, n, in_zp, left_shift, m, out_zp, lo, hi, dst);
    return;
  }
  const OutputStage stage(m, out_zp, lo, hi);
  const __m256i izp = _mm256_set1_epi32(in_zp);
  // centered << left_shift == centered * (1 << left_shift): the
  // requantizer chose the shift so the product cannot overflow int32.
  const auto centered = [&](std::int64_t i) {
    return _mm256_slli_epi32(_mm256_sub_epi32(load_8_i8_as_i32(src + i), izp),
                             left_shift);
  };
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    stage.store16(centered(i), centered(i + 8), dst + i);
  }
  if (i + 8 <= n) {
    stage.store8(centered(i), dst + i);
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
  const Rescale lhs(m.lhs);
  const Rescale rhs(m.rhs);
  const OutputStage stage(m.out, out_zp, lo, hi);
  const __m256i azp = _mm256_set1_epi32(a_zp);
  const __m256i bzp = _mm256_set1_epi32(b_zp);
  constexpr int kShift = AddMultipliers::kLeftShift;
  const auto sum = [&](std::int64_t i) {
    const __m256i av = _mm256_slli_epi32(
        _mm256_sub_epi32(load_8_i8_as_i32(a + i), azp), kShift);
    const __m256i bv = _mm256_slli_epi32(
        _mm256_sub_epi32(load_8_i8_as_i32(b + i), bzp), kShift);
    return _mm256_add_epi32(lhs(av), rhs(bv));
  };
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) stage.store16(sum(i), sum(i + 8), out + i);
  if (i + 8 <= n) {
    stage.store8(sum(i), out + i);
    i += 8;
  }
  add_row_scalar(a + i, b + i, n - i, a_zp, b_zp, m, out_zp, lo, hi, out + i);
}

// ---------------------------------------------------------------------------
// Sub-byte unpack (quant/bitpack.h wire layout: little-endian fields,
// two's-complement sign in the field width). Each step expands 16 packed
// bytes at 4 bits, 8 at 2 bits, into 32 int8 lanes.

std::int64_t unpack_body_avx2(const std::uint8_t* bytes, std::int64_t nbytes,
                              int bits, std::int8_t* dst) {
  // Each byte is widened into its own 16-bit (4-bit fields) or 32-bit
  // (2-bit fields) lane, the fields are shifted into the lane's bytes in
  // little-endian order — element 0 in the low byte — and sign-extended
  // bytewise as (v ^ s) - s. No cross-lane shuffles.
  std::int64_t consumed = 0;
  if (bits == 4) {
    const __m256i lo = _mm256_set1_epi16(0x000F);
    const __m256i hi = _mm256_set1_epi16(0x0F00);
    const __m256i sign = _mm256_set1_epi8(0x08);
    for (; consumed + 16 <= nbytes; consumed += 16) {
      const __m256i w = _mm256_cvtepu8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + consumed)));
      __m256i e =
          _mm256_or_si256(_mm256_and_si256(w, lo),
                          _mm256_and_si256(_mm256_slli_epi16(w, 4), hi));
      e = _mm256_sub_epi8(_mm256_xor_si256(e, sign), sign);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), e);
      dst += 32;
    }
    return consumed;
  }
  if (bits == 2) {
    const __m256i f0 = _mm256_set1_epi32(0x00000003);
    const __m256i f1 = _mm256_set1_epi32(0x00000300);
    const __m256i f2 = _mm256_set1_epi32(0x00030000);
    const __m256i f3 = _mm256_set1_epi32(0x03000000);
    const __m256i sign = _mm256_set1_epi8(0x02);
    for (; consumed + 8 <= nbytes; consumed += 8) {
      const __m256i w = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(bytes + consumed)));
      __m256i e = _mm256_or_si256(
          _mm256_or_si256(_mm256_and_si256(w, f0),
                          _mm256_and_si256(_mm256_slli_epi32(w, 6), f1)),
          _mm256_or_si256(_mm256_and_si256(_mm256_slli_epi32(w, 12), f2),
                          _mm256_and_si256(_mm256_slli_epi32(w, 18), f3)));
      e = _mm256_sub_epi8(_mm256_xor_si256(e, sign), sign);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), e);
      dst += 32;
    }
    return consumed;
  }
  return 0;
}

const SimdKernels kAvx2 = {
    "avx2",          &gemm_block_entry<PairMadd>, &requant_i32_row_avx2,
    nullptr,  // dw_accumulate: every depthwise layer runs dw_conv
    &requant_i8_row_avx2, &unpack_body_avx2,
    &add_row_avx2, &gemm_requant_entry<PairMadd>, &dw_conv_entry<PairMadd>,
    &dw_pack_entry<PairMadd>,
};

}  // namespace

const SimdKernels* avx2_kernels() {
  // crc32_fold is the one entry that needs more than AVX2: it is filled
  // once, from the pclmul probe (the VNNI table copies it from here).
  static const SimdKernels table = [] {
    SimdKernels t = kAvx2;
    t.crc32_fold = crc32_fold_pclmul();
    t.dw_body = "pair-madd";
    return t;
  }();
  return &table;
}

}  // namespace qmcu::nn::ops::simd

#else  // !__AVX2__

namespace qmcu::nn::ops::simd {
const SimdKernels* avx2_kernels() { return nullptr; }
}  // namespace qmcu::nn::ops::simd

#endif
