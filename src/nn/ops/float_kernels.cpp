#include "nn/ops/float_kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/ops/im2col.h"

namespace qmcu::nn::ops {

void apply_activation_row(float* v, std::size_t n, Activation act) {
  switch (act) {
    case Activation::None:
      return;
    case Activation::ReLU:
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = activate(v[i], Activation::ReLU);
      }
      return;
    case Activation::ReLU6:
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = activate(v[i], Activation::ReLU6);
      }
      return;
  }
}

namespace {

TensorShape windowed_shape(const TensorShape& in, const Layer& l,
                           int out_channels) {
  const int oh = (in.h + 2 * l.pad_h - l.kernel_h) / l.stride_h + 1;
  const int ow = (in.w + 2 * l.pad_w - l.kernel_w) / l.stride_w + 1;
  return {oh, ow, out_channels};
}

// dst[i] += a[i] * b[i]: one multiply and one add per lane, in that order.
void add_products(float* __restrict dst, const float* __restrict a,
                  const float* __restrict b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += a[i] * b[i];
}

void require_out_shape(const Tensor& out, const TensorShape& expect,
                       const char* what) {
  QMCU_REQUIRE(out.shape() == expect, std::string(what) +
                                          ": destination shape mismatch");
}

}  // namespace

void conv2d_f32_into(const Tensor& in, const Layer& l,
                     std::span<const float> weights,
                     std::span<const float> bias, Tensor& out) {
  const TensorShape& is = in.shape();
  const TensorShape os = windowed_shape(is, l, l.out_channels);
  QMCU_REQUIRE(static_cast<std::int64_t>(weights.size()) ==
                   static_cast<std::int64_t>(l.out_channels) * l.kernel_h *
                       l.kernel_w * is.c,
               "conv weight count mismatch");
  require_out_shape(out, os, "conv2d_f32");
  const std::span<const float> x = in.data();
  const std::span<float> y = out.data();

  for (int oy = 0; oy < os.h; ++oy) {
    const int iy0 = oy * l.stride_h - l.pad_h;
    for (int ox = 0; ox < os.w; ++ox) {
      const int ix0 = ox * l.stride_w - l.pad_w;
      for (int oc = 0; oc < os.c; ++oc) {
        float acc = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(oc)];
        const std::size_t wbase = static_cast<std::size_t>(oc) *
                                  static_cast<std::size_t>(l.kernel_h) *
                                  static_cast<std::size_t>(l.kernel_w) *
                                  static_cast<std::size_t>(is.c);
        for (int ky = 0; ky < l.kernel_h; ++ky) {
          const int iy = iy0 + ky;
          if (iy < 0 || iy >= is.h) continue;
          for (int kx = 0; kx < l.kernel_w; ++kx) {
            const int ix = ix0 + kx;
            if (ix < 0 || ix >= is.w) continue;
            const std::size_t xoff =
                static_cast<std::size_t>(flat_index(is, iy, ix, 0));
            const std::size_t woff =
                wbase + (static_cast<std::size_t>(ky) *
                             static_cast<std::size_t>(l.kernel_w) +
                         static_cast<std::size_t>(kx)) *
                            static_cast<std::size_t>(is.c);
            for (int ic = 0; ic < is.c; ++ic) {
              acc += x[xoff + static_cast<std::size_t>(ic)] *
                     weights[woff + static_cast<std::size_t>(ic)];
            }
          }
        }
        y[static_cast<std::size_t>(flat_index(os, oy, ox, oc))] =
            activate(acc, l.act);
      }
    }
  }
}

Tensor conv2d_f32(const Tensor& in, const Layer& l,
                  std::span<const float> weights, std::span<const float> bias) {
  Tensor out(windowed_shape(in.shape(), l, l.out_channels));
  conv2d_f32_into(in, l, weights, bias, out);
  return out;
}

void depthwise_conv2d_f32_into(const Tensor& in, const Layer& l,
                               std::span<const float> weights,
                               std::span<const float> bias, Tensor& out) {
  const TensorShape& is = in.shape();
  const TensorShape os = windowed_shape(is, l, is.c);
  QMCU_REQUIRE(static_cast<std::int64_t>(weights.size()) ==
                   static_cast<std::int64_t>(l.kernel_h) * l.kernel_w * is.c,
               "dwconv weight count mismatch");
  require_out_shape(out, os, "depthwise_conv2d_f32");
  const std::span<const float> x = in.data();
  const std::span<float> y = out.data();

  for (int oy = 0; oy < os.h; ++oy) {
    const int iy0 = oy * l.stride_h - l.pad_h;
    for (int ox = 0; ox < os.w; ++ox) {
      const int ix0 = ox * l.stride_w - l.pad_w;
      for (int c = 0; c < os.c; ++c) {
        float acc = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(c)];
        for (int ky = 0; ky < l.kernel_h; ++ky) {
          const int iy = iy0 + ky;
          if (iy < 0 || iy >= is.h) continue;
          for (int kx = 0; kx < l.kernel_w; ++kx) {
            const int ix = ix0 + kx;
            if (ix < 0 || ix >= is.w) continue;
            const std::size_t widx =
                (static_cast<std::size_t>(ky) *
                     static_cast<std::size_t>(l.kernel_w) +
                 static_cast<std::size_t>(kx)) *
                    static_cast<std::size_t>(is.c) +
                static_cast<std::size_t>(c);
            acc += x[static_cast<std::size_t>(flat_index(is, iy, ix, c))] *
                   weights[widx];
          }
        }
        y[static_cast<std::size_t>(flat_index(os, oy, ox, c))] =
            activate(acc, l.act);
      }
    }
  }
}

void depthwise_conv2d_f32_rows_into(const Tensor& in, const Layer& l,
                                    std::span<const float> weights,
                                    std::span<const float> bias, Tensor& out) {
  const TensorShape& is = in.shape();
  const TensorShape os = windowed_shape(is, l, is.c);
  QMCU_REQUIRE(static_cast<std::int64_t>(weights.size()) ==
                   static_cast<std::int64_t>(l.kernel_h) * l.kernel_w * is.c,
               "dwconv weight count mismatch");
  require_out_shape(out, os, "depthwise_conv2d_f32");
  const auto c = static_cast<std::size_t>(is.c);
  const float* x = in.data().data();
  const float* w = weights.data();
  float* y = out.data().data();
  for (int oy = 0; oy < os.h; ++oy) {
    const int iy0 = oy * l.stride_h - l.pad_h;
    const KernelRange kys = valid_kernel_range(iy0, l.kernel_h, is.h);
    for (int ox = 0; ox < os.w; ++ox) {
      const int ix0 = ox * l.stride_w - l.pad_w;
      const KernelRange kxs = valid_kernel_range(ix0, l.kernel_w, is.w);
      float* row = y + static_cast<std::size_t>(flat_index(os, oy, ox, 0));
      if (bias.empty()) {
        std::fill_n(row, c, 0.0f);
      } else {
        std::copy_n(bias.data(), c, row);
      }
      for (int ky = kys.lo; ky < kys.hi; ++ky) {
        for (int kx = kxs.lo; kx < kxs.hi; ++kx) {
          add_products(
              row, x + flat_index(is, iy0 + ky, ix0 + kx, 0),
              w + (static_cast<std::size_t>(ky) * l.kernel_w + kx) * c, c);
        }
      }
      apply_activation_row(row, c, l.act);
    }
  }
}

Tensor depthwise_conv2d_f32(const Tensor& in, const Layer& l,
                            std::span<const float> weights,
                            std::span<const float> bias) {
  Tensor out(windowed_shape(in.shape(), l, in.shape().c));
  depthwise_conv2d_f32_into(in, l, weights, bias, out);
  return out;
}

void fully_connected_f32_into(const Tensor& in, const Layer& l,
                              std::span<const float> weights,
                              std::span<const float> bias, Tensor& out) {
  const std::int64_t in_features = in.elements();
  QMCU_REQUIRE(static_cast<std::int64_t>(weights.size()) ==
                   in_features * l.out_channels,
               "fc weight count mismatch");
  require_out_shape(out, TensorShape{1, 1, l.out_channels},
                    "fully_connected_f32");
  const std::span<const float> x = in.data();
  const std::span<float> y = out.data();
  for (int o = 0; o < l.out_channels; ++o) {
    float acc = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(o)];
    const std::size_t wbase = static_cast<std::size_t>(o) *
                              static_cast<std::size_t>(in_features);
    for (std::int64_t i = 0; i < in_features; ++i) {
      acc += x[static_cast<std::size_t>(i)] *
             weights[wbase + static_cast<std::size_t>(i)];
    }
    y[static_cast<std::size_t>(o)] = activate(acc, l.act);
  }
}

void fully_connected_f32_interleaved_into(const Tensor& in, const Layer& l,
                                          std::span<const float> weights,
                                          std::span<const float> bias,
                                          Tensor& out) {
  const std::int64_t in_features = in.elements();
  QMCU_REQUIRE(static_cast<std::int64_t>(weights.size()) ==
                   in_features * l.out_channels,
               "fc weight count mismatch");
  require_out_shape(out, TensorShape{1, 1, l.out_channels},
                    "fully_connected_f32");
  constexpr int kLanes = 8;
  const auto k = static_cast<std::size_t>(in_features);
  const float* x = in.data().data();
  float* y = out.data().data();
  const auto seed = [&](int o) {
    return bias.empty() ? 0.0f : bias[static_cast<std::size_t>(o)];
  };
  int o = 0;
  for (; o + kLanes <= l.out_channels; o += kLanes) {
    const float* w = weights.data() + static_cast<std::size_t>(o) * k;
    float acc[kLanes];
    for (int j = 0; j < kLanes; ++j) acc[j] = seed(o + j);
    for (std::size_t i = 0; i < k; ++i) {
      const float v = x[i];
      for (int j = 0; j < kLanes; ++j) acc[j] += v * w[j * k + i];
    }
    for (int j = 0; j < kLanes; ++j) y[o + j] = activate(acc[j], l.act);
  }
  for (; o < l.out_channels; ++o) {
    const float* w = weights.data() + static_cast<std::size_t>(o) * k;
    float acc = seed(o);
    for (std::size_t i = 0; i < k; ++i) acc += x[i] * w[i];
    y[o] = activate(acc, l.act);
  }
}

Tensor fully_connected_f32(const Tensor& in, const Layer& l,
                           std::span<const float> weights,
                           std::span<const float> bias) {
  Tensor out(TensorShape{1, 1, l.out_channels});
  fully_connected_f32_into(in, l, weights, bias, out);
  return out;
}

void max_pool_f32_into(const Tensor& in, const Layer& l, Tensor& out) {
  const TensorShape& is = in.shape();
  const TensorShape os = windowed_shape(is, l, is.c);
  require_out_shape(out, os, "max_pool_f32");
  for (int oy = 0; oy < os.h; ++oy) {
    const int iy0 = oy * l.stride_h - l.pad_h;
    for (int ox = 0; ox < os.w; ++ox) {
      const int ix0 = ox * l.stride_w - l.pad_w;
      for (int c = 0; c < os.c; ++c) {
        float best = std::numeric_limits<float>::lowest();
        for (int ky = 0; ky < l.kernel_h; ++ky) {
          const int iy = iy0 + ky;
          if (iy < 0 || iy >= is.h) continue;
          for (int kx = 0; kx < l.kernel_w; ++kx) {
            const int ix = ix0 + kx;
            if (ix < 0 || ix >= is.w) continue;
            best = std::max(best, in.at(iy, ix, c));
          }
        }
        out.at(oy, ox, c) = best;
      }
    }
  }
}

Tensor max_pool_f32(const Tensor& in, const Layer& l) {
  Tensor out(windowed_shape(in.shape(), l, in.shape().c));
  max_pool_f32_into(in, l, out);
  return out;
}

void avg_pool_f32_into(const Tensor& in, const Layer& l, Tensor& out) {
  const TensorShape& is = in.shape();
  const TensorShape os = windowed_shape(is, l, is.c);
  require_out_shape(out, os, "avg_pool_f32");
  for (int oy = 0; oy < os.h; ++oy) {
    const int iy0 = oy * l.stride_h - l.pad_h;
    for (int ox = 0; ox < os.w; ++ox) {
      const int ix0 = ox * l.stride_w - l.pad_w;
      for (int c = 0; c < os.c; ++c) {
        float sum = 0.0f;
        int count = 0;
        for (int ky = 0; ky < l.kernel_h; ++ky) {
          const int iy = iy0 + ky;
          if (iy < 0 || iy >= is.h) continue;
          for (int kx = 0; kx < l.kernel_w; ++kx) {
            const int ix = ix0 + kx;
            if (ix < 0 || ix >= is.w) continue;
            sum += in.at(iy, ix, c);
            ++count;
          }
        }
        out.at(oy, ox, c) = count > 0 ? sum / static_cast<float>(count) : 0.0f;
      }
    }
  }
}

Tensor avg_pool_f32(const Tensor& in, const Layer& l) {
  Tensor out(windowed_shape(in.shape(), l, in.shape().c));
  avg_pool_f32_into(in, l, out);
  return out;
}

void global_avg_pool_f32_into(const Tensor& in, Tensor& out) {
  const TensorShape& is = in.shape();
  require_out_shape(out, TensorShape{1, 1, is.c}, "global_avg_pool_f32");
  const float inv = 1.0f / static_cast<float>(is.h * is.w);
  for (int c = 0; c < is.c; ++c) {
    float sum = 0.0f;
    for (int y = 0; y < is.h; ++y) {
      for (int x = 0; x < is.w; ++x) sum += in.at(y, x, c);
    }
    out.at(0, 0, c) = sum * inv;
  }
}

Tensor global_avg_pool_f32(const Tensor& in) {
  Tensor out(TensorShape{1, 1, in.shape().c});
  global_avg_pool_f32_into(in, out);
  return out;
}

void add_f32_into(const Tensor& lhs, const Tensor& rhs, Activation act,
                  Tensor& out) {
  QMCU_REQUIRE(lhs.shape() == rhs.shape(), "add operand shape mismatch");
  require_out_shape(out, lhs.shape(), "add_f32");
  const auto a = lhs.data();
  const auto b = rhs.data();
  auto y = out.data();
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = activate(a[i] + b[i], act);
  }
}

Tensor add_f32(const Tensor& lhs, const Tensor& rhs, Activation act) {
  Tensor out(lhs.shape());
  add_f32_into(lhs, rhs, act, out);
  return out;
}

void concat_f32_into(std::span<const Tensor* const> inputs, Tensor& out) {
  QMCU_REQUIRE(!inputs.empty(), "concat needs inputs");
  const TensorShape& first = inputs[0]->shape();
  int channels = 0;
  for (const Tensor* t : inputs) {
    QMCU_REQUIRE(t->shape().h == first.h && t->shape().w == first.w,
                 "concat inputs must agree spatially");
    channels += t->shape().c;
  }
  require_out_shape(out, TensorShape{first.h, first.w, channels},
                    "concat_f32");
  for (int y = 0; y < first.h; ++y) {
    for (int x = 0; x < first.w; ++x) {
      int co = 0;
      for (const Tensor* t : inputs) {
        for (int c = 0; c < t->shape().c; ++c) {
          out.at(y, x, co++) = t->at(y, x, c);
        }
      }
    }
  }
}

Tensor concat_f32(std::span<const Tensor* const> inputs) {
  QMCU_REQUIRE(!inputs.empty(), "concat needs inputs");
  const TensorShape& first = inputs[0]->shape();
  int channels = 0;
  for (const Tensor* t : inputs) channels += t->shape().c;
  Tensor out(TensorShape{first.h, first.w, channels});
  concat_f32_into(inputs, out);
  return out;
}

void softmax_f32_into(const Tensor& in, Tensor& out) {
  require_out_shape(out, in.shape(), "softmax_f32");
  const auto x = in.data();
  auto y = out.data();
  const float maxv = *std::max_element(x.begin(), x.end());
  float sum = 0.0f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = std::exp(x[i] - maxv);
    sum += y[i];
  }
  const float inv = 1.0f / sum;
  for (float& v : y) v *= inv;
}

Tensor softmax_f32(const Tensor& in) {
  Tensor out(in.shape());
  softmax_f32_into(in, out);
  return out;
}

}  // namespace qmcu::nn::ops
