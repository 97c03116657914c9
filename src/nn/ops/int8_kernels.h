// int8_kernels.h — integer quantized kernels (TFLite-Micro arithmetic
// contract, CMix-NN storage model). These are the *Reference tier*: plain
// loop nests that define the arithmetic every fast implementation must
// reproduce bit-for-bit (see nn/ops/backend.h for the dispatching tiers).
//
// Activations are affine-quantized per tensor; weights are symmetric 8-bit.
// The MAC path is integer-only: int32 accumulation, fixed-point
// requantization (see requantize.h) and saturation into the activation's
// [qmin, qmax]. Sub-byte activations (4/2-bit QuantParams) use the same
// kernels on unpacked int8 storage — the form CMix-NN computes on — while
// their accounted footprint is the packed size.
//
// Elementwise ops (residual Add, Concat rescale, AvgPool mean, slice
// requantization) are integer-only too: precomputed fixed-point multipliers
// (ElementRequantizer) replace any per-element float math, exactly as a
// deployed CMSIS-NN/TFLite-Micro build computes them. The only remaining
// float detour is Softmax, which runs on the dequantized logits.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "nn/graph.h"
#include "nn/ops/requantize.h"
#include "nn/tensor.h"

namespace qmcu::nn::ops {

namespace simd {
struct SimdKernels;
}  // namespace simd

// Quantized clamp range implementing a fused activation on top of the
// output QuantParams (TFLite convention: ReLU clamps at the zero point).
std::pair<std::int32_t, std::int32_t> activation_range(Activation act,
                                                       const QuantParams& out);

// Symmetric 8-bit weight quantization of a float weight blob.
struct QuantizedWeights {
  std::vector<std::int8_t> data;
  QuantParams params;  // zero_point == 0
};
QuantizedWeights quantize_weights(std::span<const float> w);

// Bias quantized to int32 at scale in_scale * weight_scale.
std::vector<std::int32_t> quantize_bias(std::span<const float> bias,
                                        float in_scale, float weight_scale);

// Integer mean of a pool window: precomputed fixed-point reciprocals for
// every valid-count a kernel window can produce, shared by the layer
// kernels, the region pooling used by the patch engine, and the Simd tier so
// all of them round identically (half away from zero, within 1 LSB of the
// exact rational mean for non-power-of-two counts).
class AvgPoolMultipliers {
 public:
  explicit AvgPoolMultipliers(int max_count);

  // Rounded average of a window sum over `count` valid positions.
  [[nodiscard]] std::int32_t average(std::int32_t sum, int count) const;

 private:
  std::vector<ElementRequantizer> per_count_;  // index = count - 1
};

// Every kernel writes into a caller-provided destination whose shape is
// already correct and whose QuantParams are the output parameters — the
// compiled models bind it onto a planned arena offset.
void conv2d_q_into(const QTensor& in, const Layer& l,
                   std::span<const std::int8_t> qweights,
                   const QuantParams& wparams,
                   std::span<const std::int32_t> qbias, QTensor& out);

void depthwise_conv2d_q_into(const QTensor& in, const Layer& l,
                             std::span<const std::int8_t> qweights,
                             const QuantParams& wparams,
                             std::span<const std::int32_t> qbias,
                             QTensor& out);

void fully_connected_q_into(const QTensor& in, const Layer& l,
                            std::span<const std::int8_t> qweights,
                            const QuantParams& wparams,
                            std::span<const std::int32_t> qbias, QTensor& out);

// Pools keep the input QuantParams (TFLite requires matching scales); the
// destinations must carry the producer's params.
void max_pool_q_into(const QTensor& in, const Layer& l, QTensor& out);
// `avg` must be built for (at least) the layer's kernel_h * kernel_w window.
// The table depends only on the window size, so KernelBackend caches it
// across runs.
void avg_pool_q_into(const QTensor& in, const Layer& l,
                     const AvgPoolMultipliers& avg, QTensor& out);
// `sums` is caller-provided scratch of in.c int32 accumulators (contents
// ignored).
void global_avg_pool_q_into(const QTensor& in, std::span<std::int32_t> sums,
                            QTensor& out);

// `simd` (optional) runs the rows through its add_row; a null table, or a
// null entry, runs the scalar body. Bit-identical either way.
void add_q_into(const QTensor& lhs, const QTensor& rhs, Activation act,
                QTensor& out, const simd::SimdKernels* simd = nullptr);
void concat_q_into(std::span<const QTensor* const> inputs, QTensor& out);

// Rescales `q` into `out`'s params with a single fixed-point multiplier
// (identity copy when the params already match). This is the branch-slice
// copy of the mixed-precision patch runtime.
void requantize_q_into(const QTensor& q, QTensor& out);

}  // namespace qmcu::nn::ops
