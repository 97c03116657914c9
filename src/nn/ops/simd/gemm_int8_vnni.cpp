// gemm_int8_vnni.cpp — AVX-VNNI dot-product GEMM generation.
//
// This TU is compiled with -mavx2 -mavxvnni (see CMakeLists.txt) and its
// kernel is only reached through the runtime-dispatched table after
// cpu_features probes the VEX vpdpbusd, so the rest of the binary keeps
// the base ISA.
//
// vpdpbusd multiplies *unsigned* bytes against signed bytes — four
// u8 x s8 products summed into each int32 lane per instruction, retiring
// 4 k-elements per lane where the pair-madd kernel retires 2. Every
// product fits int16 (255 * 127 = 32385) and the 4-way sum widens into
// the int32 accumulator without any saturation path, so the instruction
// is exact. To feed it int8 activations, every lane is biased to u8 by
// xor 0x80 (a_u = a + 128), which makes this table's gemm_block_i8
// compute sum_k (a + 128) * w — the table advertises gemm_a_bias = 128
// and the caller folds the -128 * Σw correction into the per-column
// zero-point offset row (offset[j] = bias - (zp + 128) * wsum[j]), which
// keeps the requantized result bit-identical to the scalar reference.
//
// The k-major panel stores consecutive *columns* per byte, but vpdpbusd
// needs each lane's 4 bytes to be consecutive *k* steps of one column, so
// the kernel transposes 4 weight rows on the fly with the byte/word
// unpack ladder; the shuffles amortize over the 4 activation rows of the
// accumulator tile. Like the scalar block, int32 accumulation bounds the
// contract to k * 255 * 128 < 2^31, i.e. k < ~65.8k — far beyond any
// im2col window this runtime prices.
#include "nn/ops/simd/simd_kernels.h"

#if defined(__AVX2__) && defined(__AVXVNNI__)

#include <immintrin.h>

#include <cstring>

#include "nn/ops/simd/requant_lanes_avx2.h"

namespace qmcu::nn::ops::simd {

namespace {

// Broadcast of 4 consecutive activation bytes (biased to u8) to every
// 32-bit lane. `count` in 1..4; missing bytes stay 0x00, which is exact
// against the zeroed weight rows the tail path pairs them with.
inline __m256i broadcast_a4(const std::int8_t* a, int count) {
  std::uint32_t g = 0;
  if (count == 4) {
    std::memcpy(&g, a, 4);
    g ^= 0x80808080u;
  } else {
    for (int i = 0; i < count; ++i) {
      g |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(a[i]) ^ 0x80u)
           << (8 * i);
    }
  }
  return _mm256_set1_epi32(static_cast<std::int32_t>(g));
}

// Transposes four 16-byte weight rows (k steps kk..kk+3 of columns
// j0..j0+15) into two ymm where lane c holds column (j0+c)'s 4 k-bytes:
// unpacklo/hi_epi8 pairs rows (0,1) and (2,3), unpacklo/hi_epi16 then
// interleaves the pairs into per-column 4-byte groups.
inline void transpose_4x16(__m128i r0, __m128i r1, __m128i r2, __m128i r3,
                           __m256i* w_lo, __m256i* w_hi) {
  const __m128i t0 = _mm_unpacklo_epi8(r0, r1);
  const __m128i t1 = _mm_unpackhi_epi8(r0, r1);
  const __m128i t2 = _mm_unpacklo_epi8(r2, r3);
  const __m128i t3 = _mm_unpackhi_epi8(r2, r3);
  const __m128i u0 = _mm_unpacklo_epi16(t0, t2);  // columns 0..3
  const __m128i u1 = _mm_unpackhi_epi16(t0, t2);  // columns 4..7
  const __m128i u2 = _mm_unpacklo_epi16(t1, t3);  // columns 8..11
  const __m128i u3 = _mm_unpackhi_epi16(t1, t3);  // columns 12..15
  *w_lo = _mm256_set_m128i(u1, u0);
  *w_hi = _mm256_set_m128i(u3, u2);
}

// `out` (AccRows or QuantRows of requant_lanes_avx2.h) decides whether the
// finished rows leave as int32 or as requantized int8.
template <int ROWS, class Out>
void gemm_tile_16(const std::int8_t* a, const std::int8_t* bt, int n, int k,
                  int j0, const Out& out) {
  __m256i acc_lo[ROWS];
  __m256i acc_hi[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    acc_lo[r] = _mm256_setzero_si256();
    acc_hi[r] = _mm256_setzero_si256();
  }
  int kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    const std::int8_t* b0 = bt + static_cast<std::size_t>(kk) * n + j0;
    __m256i w_lo;
    __m256i w_hi;
    transpose_4x16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0 + n)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0 + 2 * n)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0 + 3 * n)),
        &w_lo, &w_hi);
    for (int r = 0; r < ROWS; ++r) {
      const __m256i au =
          broadcast_a4(a + static_cast<std::size_t>(r) * k + kk, 4);
      acc_lo[r] = _mm256_dpbusd_epi32(acc_lo[r], au, w_lo);
      acc_hi[r] = _mm256_dpbusd_epi32(acc_hi[r], au, w_hi);
    }
  }
  if (kk < k) {  // k tail: zero-filled weight rows against 0x00 a bytes
    const int t = k - kk;
    const std::int8_t* b0 = bt + static_cast<std::size_t>(kk) * n + j0;
    __m128i r0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0));
    __m128i r1 = t > 1 ? _mm_loadu_si128(
                             reinterpret_cast<const __m128i*>(b0 + n))
                       : _mm_setzero_si128();
    __m128i r2 = t > 2 ? _mm_loadu_si128(
                             reinterpret_cast<const __m128i*>(b0 + 2 * n))
                       : _mm_setzero_si128();
    __m256i w_lo;
    __m256i w_hi;
    transpose_4x16(r0, r1, r2, _mm_setzero_si128(), &w_lo, &w_hi);
    for (int r = 0; r < ROWS; ++r) {
      const __m256i au =
          broadcast_a4(a + static_cast<std::size_t>(r) * k + kk, t);
      acc_lo[r] = _mm256_dpbusd_epi32(acc_lo[r], au, w_lo);
      acc_hi[r] = _mm256_dpbusd_epi32(acc_hi[r], au, w_hi);
    }
  }
  for (int r = 0; r < ROWS; ++r) out.row16(r, j0, acc_lo[r], acc_hi[r]);
}

// 8-column tile: the same transpose ladder on 8-byte row loads, one
// vpdpbusd per activation row.
template <int ROWS, class Out>
void gemm_tile_8(const std::int8_t* a, const std::int8_t* bt, int n, int k,
                 int j0, const Out& out) {
  __m256i acc_v[ROWS];
  for (int r = 0; r < ROWS; ++r) acc_v[r] = _mm256_setzero_si256();
  const auto weights8 = [&](__m128i r0, __m128i r1, __m128i r2, __m128i r3) {
    const __m128i t0 = _mm_unpacklo_epi8(r0, r1);
    const __m128i t2 = _mm_unpacklo_epi8(r2, r3);
    const __m128i u0 = _mm_unpacklo_epi16(t0, t2);  // columns 0..3
    const __m128i u1 = _mm_unpackhi_epi16(t0, t2);  // columns 4..7
    return _mm256_set_m128i(u1, u0);
  };
  int kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    const std::int8_t* b0 = bt + static_cast<std::size_t>(kk) * n + j0;
    const __m256i w = weights8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b0)),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b0 + n)),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b0 + 2 * n)),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b0 + 3 * n)));
    for (int r = 0; r < ROWS; ++r) {
      const __m256i au =
          broadcast_a4(a + static_cast<std::size_t>(r) * k + kk, 4);
      acc_v[r] = _mm256_dpbusd_epi32(acc_v[r], au, w);
    }
  }
  if (kk < k) {
    const int t = k - kk;
    const std::int8_t* b0 = bt + static_cast<std::size_t>(kk) * n + j0;
    const __m128i r0 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b0));
    const __m128i r1 =
        t > 1 ? _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b0 + n))
              : _mm_setzero_si128();
    const __m128i r2 =
        t > 2 ? _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b0 + 2 * n))
              : _mm_setzero_si128();
    const __m256i w = weights8(r0, r1, r2, _mm_setzero_si128());
    for (int r = 0; r < ROWS; ++r) {
      const __m256i au =
          broadcast_a4(a + static_cast<std::size_t>(r) * k + kk, t);
      acc_v[r] = _mm256_dpbusd_epi32(acc_v[r], au, w);
    }
  }
  for (int r = 0; r < ROWS; ++r) out.row8(r, j0, acc_v[r]);
}

template <class Out>
void gemm_block(const std::int8_t* a, const std::int8_t* bt, int rows, int n,
                int k, const Out& out) {
  int j0 = 0;
  for (; j0 + 16 <= n; j0 += 16) {
    switch (rows) {
      case 4:
        gemm_tile_16<4>(a, bt, n, k, j0, out);
        break;
      case 3:
        gemm_tile_16<3>(a, bt, n, k, j0, out);
        break;
      case 2:
        gemm_tile_16<2>(a, bt, n, k, j0, out);
        break;
      default:
        gemm_tile_16<1>(a, bt, n, k, j0, out);
        break;
    }
  }
  if (j0 + 8 <= n) {
    switch (rows) {
      case 4:
        gemm_tile_8<4>(a, bt, n, k, j0, out);
        break;
      case 3:
        gemm_tile_8<3>(a, bt, n, k, j0, out);
        break;
      case 2:
        gemm_tile_8<2>(a, bt, n, k, j0, out);
        break;
      default:
        gemm_tile_8<1>(a, bt, n, k, j0, out);
        break;
    }
    j0 += 8;
  }
  // Column tail (< 8): the scalar register-tile shape with the same
  // (a + 128) lane bias as the vector path — one contract per table.
  if (j0 < n) {
    const int jn = n - j0;
    for (int r = 0; r < rows; ++r) {
      const std::int8_t* ar = a + static_cast<std::size_t>(r) * k;
      std::int32_t t[8] = {0};
      const std::int8_t* bp = bt + j0;
      for (int kk = 0; kk < k; ++kk, bp += n) {
        const std::int32_t v = static_cast<std::int32_t>(ar[kk]) + 128;
        for (int j = 0; j < jn; ++j) t[j] += v * bp[j];
      }
      out.row_tail(r, j0, t, jn);
    }
  }
}

void gemm_block_i8_vnni(const std::int8_t* a, const std::int8_t* bt, int rows,
                        int n, int k, std::int32_t* acc) {
  gemm_block(a, bt, rows, n, k, AccRows{acc, n});
}

void gemm_requant_block_vnni(const std::int8_t* a, const std::int8_t* bt,
                             int rows, int n, int k,
                             const std::int32_t* offset,
                             FixedPointMultiplier m, std::int32_t out_zp,
                             std::int32_t lo, std::int32_t hi,
                             std::int8_t* out) {
  gemm_block(a, bt, rows, n, k,
             QuantRows{offset, OutputStage(m, out_zp, lo, hi), out, n});
}

}  // namespace

const SimdKernels* avx2_vnni_kernels() {
  static const SimdKernels* table = []() -> const SimdKernels* {
    const SimdKernels* base = avx2_kernels();
    if (base == nullptr) return nullptr;
    // The generation shares every non-GEMM entry with the base AVX2 table;
    // both GEMM entries carry the +128 activation bias.
    static SimdKernels t;
    t = *base;
    t.name = "avx2+vnni";
    t.gemm_block_i8 = &gemm_block_i8_vnni;
    t.gemm_requant_block = &gemm_requant_block_vnni;
    t.gemm_a_bias = 128;
    t.gemm_dot = true;
    return &t;
  }();
  return table;
}

}  // namespace qmcu::nn::ops::simd

#else  // !(__AVX2__ && __AVXVNNI__)

namespace qmcu::nn::ops::simd {
const SimdKernels* avx2_vnni_kernels() { return nullptr; }
}  // namespace qmcu::nn::ops::simd

#endif
