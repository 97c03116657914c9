// gemm_int8.h — register-tiled integer GEMM with fused requantization.
//
// The Simd conv/fc tier computes C = A · Bᵀ where A is the im2col matrix
// (M output pixels × K window elements) and B the weight matrix
// (N output channels × K, the Graph's native [oc][kh][kw][ic] layout).
// Weights are first repacked k-major (Bt[k][n]) so the inner loop walks
// both operands with unit stride. The x86 tables take the whole matrix in
// one call: each 16- or 8-column tile's weights are laid out once in the
// generation's operand form and reused by every 4-row block of A, so each
// laid-out weight lane serves all M rows and each loaded activation lane
// the tile's columns. An M == 1 call (fully-connected) streams the panel
// row by row into one accumulator row instead.
//
// Zero-point handling follows CMSIS-NN: the GEMM accumulates raw x·w
// products and the input-offset term is folded into a per-column constant
//   offset[n] = bias[n] - input_zp * Σ_k w[n][k]
// applied once per output, which keeps the inner loop subtraction-free and
// the result bit-identical to the reference Σ (x − zp) · w accumulator.
#pragma once

#include <cstdint>
#include <span>

#include "nn/graph.h"
#include "nn/ops/requantize.h"

namespace qmcu::nn::ops {

namespace simd {
struct SimdKernels;
}  // namespace simd

// Repacks row-major B [n][k] into k-major Bt [k][n]. The transpose walks
// 16x16 tiles so both the source rows and the destination columns stay
// within a cache line per tile instead of striding the whole panel
// column-wise per source row; output bytes are identical to the naive
// row-by-row transpose.
void pack_weights_kmajor(std::span<const std::int8_t> b, int n, int k,
                         std::int8_t* bt);
void pack_weights_kmajor_f32(std::span<const float> b, int n, int k,
                             float* bt);

// Per-output-channel weight sums Σ_k w[n][k] for the zero-point correction.
void weight_column_sums(std::span<const std::int8_t> b, int n, int k,
                        std::int32_t* wsum);

// Requantization applied to each finished int32 accumulator column.
struct GemmQuantPost {
  const std::int32_t* offset = nullptr;  // per-column bias − zp·wsum, size n
  FixedPointMultiplier multiplier;
  std::int32_t output_zp = 0;
  std::int32_t act_lo = -128;
  std::int32_t act_hi = 127;
};

// C[m][n] (row-major, stride n) = requant(A[m][:] · Bt[:][n] + offset[n]).
// `acc` is caller-provided scratch of at least min(4, m) * n int32 (the
// unfused block walks at most 4 A rows at a time; fc calls with m == 1
// need only one accumulator row). When `simd` is non-null, its fused
// gemm_requant entry runs the whole matrix in one call; where that entry
// is null, or the multiplier's shift is outside its vector lanes, each
// 4-row block runs the accumulator block and requantize epilogue
// (per-entry scalar fallback; results are bit-identical either way — that
// is the Simd tier's contract).
void gemm_int8_requant(const std::int8_t* a, const std::int8_t* bt, int m,
                       int n, int k, const GemmQuantPost& post,
                       std::int32_t* acc, std::int8_t* c,
                       const simd::SimdKernels* simd = nullptr);

// Float flavour: C[m][n] = act(A·Bt + bias[n]). Accumulation order over k is
// ascending with one scalar accumulator per output, bit-identical to the
// reference kernels (zero-padded lanes contribute exact +0.0f). C itself
// holds the accumulators, so the call needs no scratch.
void gemm_f32(const float* a, const float* bt, int m, int n, int k,
              std::span<const float> bias, Activation act, float* c);

}  // namespace qmcu::nn::ops
