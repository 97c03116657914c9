// im2col.h — receptive-field packing for the Simd kernel tier.
//
// Convolution lowers onto GEMM by materializing, per output pixel, the
// kernel_h * kernel_w * in_channels window it reads (one K-element row of
// the im2col matrix). Packing works one *output row* at a time so the
// scratch footprint is out_w * K int8 lanes, not the whole matrix — the
// MCU-style bound a patch-branch executor needs. Interior pixels (window
// fully inside the feature map) take a memcpy-per-kernel-row fast path;
// only border pixels pay per-position bounds checks, which is the
// interior/border split the padded convolutions rely on.
#pragma once

#include <cstdint>
#include <span>

#include "nn/graph.h"
#include "nn/shape.h"

namespace qmcu::nn::ops {

// Output shape of a windowed op (conv / pool) per the Layer geometry.
TensorShape conv_output_shape(const TensorShape& in, const Layer& l,
                              int out_channels);

// Valid (in-bounds) kernel index range along one axis for a window anchored
// at input position `i0`: the ky with 0 <= i0 + ky < extent. Shared by the
// reference loop nests and the Simd tier's border handling.
struct KernelRange {
  int lo;
  int hi;  // exclusive
  [[nodiscard]] int count() const { return hi > lo ? hi - lo : 0; }
};

KernelRange valid_kernel_range(int i0, int kernel, int extent);

// Elements of one packed im2col pixel row: kernel_h * kernel_w * in.c.
std::int64_t im2col_row_elements(const TensorShape& in, const Layer& l);

// Packs the receptive fields of all `out_w` output pixels of output row
// `oy` into `dst` (out_w rows of K elements each). Out-of-bounds window
// positions are filled with `pad_value` — the input zero point, i.e. the
// quantized encoding of real 0, so the GEMM needs no padding logic at all.
void im2col_pack_row(std::span<const std::int8_t> x, const TensorShape& in,
                     const Layer& l, int oy, int out_w, std::int8_t pad_value,
                     std::int8_t* dst);

// Float flavour (same geometry, zero padding) for the fast float conv path.
void im2col_pack_row_f32(std::span<const float> x, const TensorShape& in,
                         const Layer& l, int oy, int out_w, float* dst);

}  // namespace qmcu::nn::ops
