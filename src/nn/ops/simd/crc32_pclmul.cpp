// crc32_pclmul.cpp — carry-less-multiply folding body for nn::crc32.
//
// Compiled with -mpclmul -msse4.1 (see CMakeLists.txt) and reached only
// through SimdKernels::crc32_fold, which avx2_kernels() fills from
// crc32_fold_pclmul() when cpuid reports pclmul.
//
// The method is Gopal et al., "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ" (Intel, 2009), in the bit-reflected domain of the IEEE
// polynomial 0xEDB88320. A CRC is a remainder of the message polynomial
// mod P; multiplying a 128-bit chunk by x^n mod P moves it n bits further
// along the message without changing the remainder. So four 128-bit lanes
// each take the next 64-byte stride, fold forward by 512 bits per step
// (two 64x64 carry-less products against K1/K2) and XOR in fresh data. The
// lanes then fold into one (K3/K4, 128 bits per step), any remaining
// 16-byte blocks fold in the same way, and the 128-bit residue reduces to
// 64 then 32 bits (K5) and finally through a Barrett reduction with the
// 33-bit P' and its quotient constant mu. Every step is exact GF(2)
// arithmetic: the result is the remainder slicing-by-16 computes, bit for
// bit.
#include "nn/ops/simd/simd_kernels.h"

#if defined(__PCLMUL__) && defined(__SSE4_1__)

#include <immintrin.h>

namespace qmcu::nn::ops::simd {

namespace {

// Reflected constants: x^(4*128+32), x^(4*128-32) (512-bit fold),
// x^(128+32), x^(128-32) (128-bit fold) and x^64 (64-to-32 step), each
// mod P and shifted for the reflected domain; then P' and
// mu = floor(x^64 / P).
constexpr long long kK1 = 0x154442bd4LL;
constexpr long long kK2 = 0x1c6e41596LL;
constexpr long long kK3 = 0x1751997d0LL;
constexpr long long kK4 = 0x0ccaa009eLL;
constexpr long long kK5 = 0x163cd6124LL;
constexpr long long kPoly = 0x1db710641LL;
constexpr long long kMu = 0x1f7011641LL;

__m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x.lo * k.lo ^ x.hi * k.hi ^ next: `x` moved forward by k's distance,
// with the block at that distance added.
__m128i fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

std::int64_t crc32_fold_body(std::uint32_t* state, const std::uint8_t* data,
                             std::int64_t nbytes) {
  if (nbytes < 64) return 0;
  const std::int64_t total = nbytes & ~std::int64_t{15};
  const std::uint8_t* p = data;
  const std::uint8_t* const end = data + total;

  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(
                                           static_cast<int>(*state)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;

  const __m128i k12 = _mm_set_epi64x(kK2, kK1);
  while (end - p >= 64) {
    x0 = fold(x0, k12, load(p));
    x1 = fold(x1, k12, load(p + 16));
    x2 = fold(x2, k12, load(p + 32));
    x3 = fold(x3, k12, load(p + 48));
    p += 64;
  }

  const __m128i k34 = _mm_set_epi64x(kK4, kK3);
  __m128i x = fold(x0, k34, x1);
  x = fold(x, k34, x2);
  x = fold(x, k34, x3);
  for (; p < end; p += 16) x = fold(x, k34, load(p));

  // 128 -> 64 bits: the low half times K4 added to the high half.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k34, 0x10));
  // 64 -> 32 bits: the low word times K5 added to the upper 32 bits.
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett: q = (x.lo32 * mu).lo32; remainder = x ^ q * P'.
  const __m128i poly = _mm_set_epi64x(kMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  x = _mm_xor_si128(x, q);

  *state = static_cast<std::uint32_t>(_mm_extract_epi32(x, 1));
  return total;
}

}  // namespace

decltype(SimdKernels::crc32_fold) crc32_fold_pclmul() {
  return __builtin_cpu_supports("pclmul") ? &crc32_fold_body : nullptr;
}

}  // namespace qmcu::nn::ops::simd

#else  // !(__PCLMUL__ && __SSE4_1__)

namespace qmcu::nn::ops::simd {
decltype(SimdKernels::crc32_fold) crc32_fold_pclmul() { return nullptr; }
}  // namespace qmcu::nn::ops::simd

#endif
