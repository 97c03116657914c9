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
// every 4 panel rows of a column tile go through the byte/word unpack
// ladder. The shared driver (gemm_tiles_avx2.h) does that once per call
// into a stack strip when the GEMM has more than one 4-row block, so the
// shuffles amortize over all m rows. Like the scalar block, int32
// accumulation bounds the contract to k * 255 * 128 < 2^31, i.e. k < ~65.8k
// — far beyond any im2col window this runtime prices.
#include "nn/ops/simd/simd_kernels.h"

#if defined(__AVX2__) && defined(__AVXVNNI__)

#include <immintrin.h>

#include <cstring>

#include "nn/ops/simd/gemm_tiles_avx2.h"

namespace qmcu::nn::ops::simd {

namespace {

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

// The gemm_tiles_avx2.h policy of the dot generation: byte quads, u8 x s8.
struct Vnni {
  static constexpr int kStep = 4;
  static constexpr std::int32_t kABias = 128;

  // Rows past t are zero: against them any activation byte adds 0.
  template <int V>
  static void weights(const std::int8_t* b0, int n, int t, __m256i* w) {
    const auto row = [&](int i) {
      if (i >= t) return _mm_setzero_si128();
      const std::int8_t* p = b0 + static_cast<std::size_t>(i) * n;
      if constexpr (V == 2) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
      } else {
        return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
      }
    };
    const __m128i r0 = row(0);
    const __m128i r1 = row(1);
    const __m128i r2 = row(2);
    const __m128i r3 = row(3);
    if constexpr (V == 2) {
      transpose_4x16(r0, r1, r2, r3, &w[0], &w[1]);
    } else {
      // The low halves of the same ladder: columns 0..3, then 4..7.
      const __m128i t0 = _mm_unpacklo_epi8(r0, r1);
      const __m128i t2 = _mm_unpacklo_epi8(r2, r3);
      w[0] = _mm256_set_m128i(_mm_unpackhi_epi16(t0, t2),
                              _mm_unpacklo_epi16(t0, t2));
    }
  }

  // vpbroadcastd from memory, then the xor 0x80 that biases int8 to u8.
  static __m256i broadcast(const std::int8_t* a) {
    std::int32_t g;
    std::memcpy(&g, a, 4);
    return _mm256_xor_si256(_mm256_set1_epi32(g),
                            _mm256_set1_epi8(static_cast<char>(0x80)));
  }

  // `count` in 1..3; the missing bytes stay 0x00 (their weights are 0).
  static __m256i broadcast_tail(const std::int8_t* a, int count) {
    std::uint32_t g = 0;
    for (int i = 0; i < count; ++i) {
      g |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(a[i]) ^ 0x80u)
           << (8 * i);
    }
    return _mm256_set1_epi32(static_cast<std::int32_t>(g));
  }

  static __m256i madd(__m256i acc, __m256i a, __m256i w) {
    return _mm256_dpbusd_epi32(acc, a, w);
  }

  // transpose_4x16 already emits columns 0..7 and 8..15.
  static void order16(__m256i* /*lo*/, __m256i* /*hi*/) {}
};

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
    t.gemm_block_i8 = &gemm_block_entry<Vnni>;
    t.gemm_requant = &gemm_requant_entry<Vnni>;
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
