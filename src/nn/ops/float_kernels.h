// float_kernels.h — float32 reference kernels, NHWC, batch 1.
//
// These are the golden-path implementations: every quantized kernel and the
// compiled patch model are validated against them. Geometry (kernel, stride,
// symmetric zero padding, fused activation) comes from the Layer spec so the
// kernels stay in lock-step with graph shape inference.
//
// Every kernel writes into a caller-provided, correctly shaped destination,
// so the compiled models' hot path performs no per-layer allocation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "nn/graph.h"
#include "nn/tensor.h"

namespace qmcu::nn::ops {

// 2-D convolution. `weights` layout [out_c][kh][kw][in_c]; `bias` may be
// empty (treated as zero).
void conv2d_f32_into(const Tensor& in, const Layer& l,
                     std::span<const float> weights,
                     std::span<const float> bias, Tensor& out);

// Depthwise convolution (channel multiplier 1). `weights` layout [kh][kw][c].
void depthwise_conv2d_f32_into(const Tensor& in, const Layer& l,
                               std::span<const float> weights,
                               std::span<const float> bias, Tensor& out);

// Fully connected over the flattened input. `weights` layout [out][in].
void fully_connected_f32_into(const Tensor& in, const Layer& l,
                              std::span<const float> weights,
                              std::span<const float> bias, Tensor& out);

// --- Simd-tier bodies -------------------------------------------------------
// KernelBackend's Simd tier runs these in place of the two loop nests
// above. Only the loop order differs: every output still starts from its
// bias (0 when `bias` is empty) and adds the same products in the same
// ascending order, one rounding per multiply and one per add
// (float_kernels.cpp is built with -ffp-contract=off), so both are
// bit-identical to the Reference tier.

// Channels innermost: each output pixel's channel row is seeded with the
// bias, then each in-bounds tap is added in ascending (ky, kx) order as one
// pass over the channels, which the compiler vectorizes.
void depthwise_conv2d_f32_rows_into(const Tensor& in, const Layer& l,
                                    std::span<const float> weights,
                                    std::span<const float> bias, Tensor& out);

// Eight outputs per pass over the input, each with its own accumulator, so
// eight dependent add chains are in flight instead of one; the remaining
// outputs run one at a time.
void fully_connected_f32_interleaved_into(const Tensor& in, const Layer& l,
                                          std::span<const float> weights,
                                          std::span<const float> bias,
                                          Tensor& out);

void max_pool_f32_into(const Tensor& in, const Layer& l, Tensor& out);
void avg_pool_f32_into(const Tensor& in, const Layer& l, Tensor& out);
void global_avg_pool_f32_into(const Tensor& in, Tensor& out);

void add_f32_into(const Tensor& lhs, const Tensor& rhs, Activation act,
                  Tensor& out);
void concat_f32_into(std::span<const Tensor* const> inputs, Tensor& out);
void softmax_f32_into(const Tensor& in, Tensor& out);

// Fused activation of one value.
inline float activate(float v, Activation act) {
  switch (act) {
    case Activation::None: return v;
    case Activation::ReLU: return v > 0.0f ? v : 0.0f;
    case Activation::ReLU6: return std::clamp(v, 0.0f, 6.0f);
  }
  return v;
}

// Fused activation applied in place to n values at `v`: the activation is
// picked once, so each case runs a vectorizable loop.
void apply_activation_row(float* v, std::size_t n, Activation act);

}  // namespace qmcu::nn::ops
