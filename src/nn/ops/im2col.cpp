#include "nn/ops/im2col.h"

#include <algorithm>
#include <cstring>

namespace qmcu::nn::ops {

TensorShape conv_output_shape(const TensorShape& in, const Layer& l,
                              int out_channels) {
  const int oh = (in.h + 2 * l.pad_h - l.kernel_h) / l.stride_h + 1;
  const int ow = (in.w + 2 * l.pad_w - l.kernel_w) / l.stride_w + 1;
  return {oh, ow, out_channels};
}

std::int64_t im2col_row_elements(const TensorShape& in, const Layer& l) {
  return static_cast<std::int64_t>(l.kernel_h) * l.kernel_w * in.c;
}

KernelRange valid_kernel_range(int i0, int kernel, int extent) {
  return {std::max(0, -i0), std::min(kernel, extent - i0)};
}

namespace {

// Shared packing skeleton. `copy(dst, src_element_offset, count)` transfers
// `count` lanes from the source representation; `fill(dst, count)` writes
// the padding value. Both operate on T lanes.
template <typename T, typename Copy, typename Fill>
void pack_row_impl(const TensorShape& in, const Layer& l, int oy, int out_w,
                   T* dst, const Copy& copy, const Fill& fill) {
  const int c = in.c;
  const int kw_row = l.kernel_w * c;  // lanes per kernel row segment
  const int iy0 = oy * l.stride_h - l.pad_h;
  for (int ox = 0; ox < out_w; ++ox) {
    const int ix0 = ox * l.stride_w - l.pad_w;
    T* row = dst + static_cast<std::size_t>(ox) *
                       static_cast<std::size_t>(l.kernel_h) * kw_row;
    const bool x_interior = ix0 >= 0 && ix0 + l.kernel_w <= in.w;
    for (int ky = 0; ky < l.kernel_h; ++ky) {
      const int iy = iy0 + ky;
      T* seg = row + static_cast<std::size_t>(ky) * kw_row;
      if (iy < 0 || iy >= in.h) {
        fill(seg, kw_row);
        continue;
      }
      if (x_interior) {
        // Interior: the kernel row is one contiguous NHWC slab.
        copy(seg, static_cast<std::int64_t>(flat_index(in, iy, ix0, 0)),
             kw_row);
        continue;
      }
      for (int kx = 0; kx < l.kernel_w; ++kx) {
        const int ix = ix0 + kx;
        T* lane = seg + static_cast<std::size_t>(kx) * c;
        if (ix < 0 || ix >= in.w) {
          fill(lane, c);
        } else {
          copy(lane, static_cast<std::int64_t>(flat_index(in, iy, ix, 0)), c);
        }
      }
    }
  }
}

}  // namespace

void im2col_pack_row(std::span<const std::int8_t> x, const TensorShape& in,
                     const Layer& l, int oy, int out_w, std::int8_t pad_value,
                     std::int8_t* dst) {
  pack_row_impl<std::int8_t>(
      in, l, oy, out_w, dst,
      [&](std::int8_t* d, std::int64_t off, int n) {
        std::memcpy(d, x.data() + off, static_cast<std::size_t>(n));
      },
      [&](std::int8_t* d, int n) {
        std::memset(d, pad_value, static_cast<std::size_t>(n));
      });
}

void im2col_pack_row_f32(std::span<const float> x, const TensorShape& in,
                         const Layer& l, int oy, int out_w, float* dst) {
  pack_row_impl<float>(
      in, l, oy, out_w, dst,
      [&](float* d, std::int64_t off, int n) {
        std::memcpy(d, x.data() + off, static_cast<std::size_t>(n) *
                                           sizeof(float));
      },
      [&](float* d, int n) { std::fill_n(d, n, 0.0f); });
}

}  // namespace qmcu::nn::ops
