#include "nn/ops/int8_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "nn/ops/float_kernels.h"
#include "nn/ops/im2col.h"
#include "nn/ops/requantize.h"
#include "nn/ops/simd/simd_kernels.h"

namespace qmcu::nn::ops {

std::pair<std::int32_t, std::int32_t> activation_range(
    Activation act, const QuantParams& out) {
  switch (act) {
    case Activation::None:
      return {out.qmin(), out.qmax()};
    case Activation::ReLU:
      return {std::max(out.qmin(), out.zero_point), out.qmax()};
    case Activation::ReLU6:
      return {std::max(out.qmin(), out.zero_point),
              std::min(out.qmax(), out.quantize(6.0f))};
  }
  return {out.qmin(), out.qmax()};
}

QuantizedWeights quantize_weights(std::span<const float> w) {
  float absmax = 0.0f;
  for (float v : w) absmax = std::max(absmax, std::abs(v));
  QuantizedWeights out;
  out.params = choose_symmetric_quant_params(absmax, 8);
  out.data.resize(w.size());
  quantize_row(w.data(), static_cast<std::int64_t>(w.size()), out.params,
               out.data.data());
  return out;
}

std::vector<std::int32_t> quantize_bias(std::span<const float> bias,
                                        float in_scale, float weight_scale) {
  const double bias_scale = static_cast<double>(in_scale) * weight_scale;
  QMCU_REQUIRE(bias_scale > 0.0, "bias scale must be positive");
  std::vector<std::int32_t> out(bias.size());
  for (std::size_t i = 0; i < bias.size(); ++i) {
    out[i] = static_cast<std::int32_t>(
        std::llround(static_cast<double>(bias[i]) / bias_scale));
  }
  return out;
}

AvgPoolMultipliers::AvgPoolMultipliers(int max_count) {
  QMCU_REQUIRE(max_count > 0, "pool window must have at least one position");
  per_count_.reserve(static_cast<std::size_t>(max_count));
  for (int count = 1; count <= max_count; ++count) {
    per_count_.emplace_back(1.0 / count, 128 * count);
  }
}

std::int32_t AvgPoolMultipliers::average(std::int32_t sum, int count) const {
  QMCU_REQUIRE(count >= 1 &&
                   count <= static_cast<int>(per_count_.size()),
               "window count out of precomputed range");
  return per_count_[static_cast<std::size_t>(count - 1)].apply(sum);
}

void conv2d_q_into(const QTensor& in, const Layer& l,
                   std::span<const std::int8_t> qweights,
                   const QuantParams& wparams,
                   std::span<const std::int32_t> qbias, QTensor& out) {
  const TensorShape& is = in.shape();
  const TensorShape os = conv_output_shape(is, l, l.out_channels);
  QMCU_REQUIRE(out.shape() == os, "conv2d_q: destination shape mismatch");
  const QuantParams& out_params = out.params();
  const auto& ip = in.params();
  const FixedPointMultiplier m = quantize_multiplier(
      static_cast<double>(ip.scale) * wparams.scale / out_params.scale);
  const auto [act_lo, act_hi] = activation_range(l.act, out_params);
  const auto x = in.data();
  auto y = out.data();

  for (int oy = 0; oy < os.h; ++oy) {
    const int iy0 = oy * l.stride_h - l.pad_h;
    for (int ox = 0; ox < os.w; ++ox) {
      const int ix0 = ox * l.stride_w - l.pad_w;
      for (int oc = 0; oc < os.c; ++oc) {
        std::int32_t acc =
            qbias.empty() ? 0 : qbias[static_cast<std::size_t>(oc)];
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
              const std::int32_t xv =
                  static_cast<std::int32_t>(
                      x[xoff + static_cast<std::size_t>(ic)]) -
                  ip.zero_point;
              acc += xv * qweights[woff + static_cast<std::size_t>(ic)];
            }
          }
        }
        const std::int32_t q =
            clamp_to(apply_multiplier(acc, m) + out_params.zero_point, act_lo,
                     act_hi);
        y[static_cast<std::size_t>(flat_index(os, oy, ox, oc))] =
            static_cast<std::int8_t>(q);
      }
    }
  }
}

QTensor conv2d_q(const QTensor& in, const Layer& l,
                 std::span<const std::int8_t> qweights,
                 const QuantParams& wparams,
                 std::span<const std::int32_t> qbias,
                 const QuantParams& out_params) {
  QTensor out(conv_output_shape(in.shape(), l, l.out_channels), out_params);
  conv2d_q_into(in, l, qweights, wparams, qbias, out);
  return out;
}

void depthwise_conv2d_q_into(const QTensor& in, const Layer& l,
                             std::span<const std::int8_t> qweights,
                             const QuantParams& wparams,
                             std::span<const std::int32_t> qbias,
                             QTensor& out) {
  const TensorShape& is = in.shape();
  const TensorShape os = conv_output_shape(is, l, is.c);
  QMCU_REQUIRE(out.shape() == os,
               "depthwise_conv2d_q: destination shape mismatch");
  const QuantParams& out_params = out.params();
  const auto& ip = in.params();
  const FixedPointMultiplier m = quantize_multiplier(
      static_cast<double>(ip.scale) * wparams.scale / out_params.scale);
  const auto [act_lo, act_hi] = activation_range(l.act, out_params);
  const std::int8_t* x = in.data().data();
  const std::int8_t* w = qweights.data();
  std::int8_t* y = out.data().data();
  const int c = is.c;

  for (int oy = 0; oy < os.h; ++oy) {
    const int iy0 = oy * l.stride_h - l.pad_h;
    const KernelRange kyr = valid_kernel_range(iy0, l.kernel_h, is.h);
    for (int ox = 0; ox < os.w; ++ox) {
      const int ix0 = ox * l.stride_w - l.pad_w;
      const KernelRange kxr = valid_kernel_range(ix0, l.kernel_w, is.w);
      std::int8_t* yrow =
          y + static_cast<std::size_t>(flat_index(os, oy, ox, 0));
      for (int ch = 0; ch < c; ++ch) {
        std::int32_t acc =
            qbias.empty() ? 0 : qbias[static_cast<std::size_t>(ch)];
        for (int ky = kyr.lo; ky < kyr.hi; ++ky) {
          // Row base pointers hoisted: both walk with stride c along kx.
          const std::int8_t* xrow =
              x + static_cast<std::size_t>(
                      flat_index(is, iy0 + ky, ix0 + kxr.lo, ch));
          const std::int8_t* wrow =
              w + (static_cast<std::size_t>(ky) *
                       static_cast<std::size_t>(l.kernel_w) +
                   static_cast<std::size_t>(kxr.lo)) *
                      static_cast<std::size_t>(c) +
              static_cast<std::size_t>(ch);
          for (int kx = kxr.lo; kx < kxr.hi; ++kx) {
            acc += (static_cast<std::int32_t>(*xrow) - ip.zero_point) * *wrow;
            xrow += c;
            wrow += c;
          }
        }
        const std::int32_t q =
            clamp_to(apply_multiplier(acc, m) + out_params.zero_point, act_lo,
                     act_hi);
        yrow[ch] = static_cast<std::int8_t>(q);
      }
    }
  }
}

QTensor depthwise_conv2d_q(const QTensor& in, const Layer& l,
                           std::span<const std::int8_t> qweights,
                           const QuantParams& wparams,
                           std::span<const std::int32_t> qbias,
                           const QuantParams& out_params) {
  QTensor out(conv_output_shape(in.shape(), l, in.shape().c), out_params);
  depthwise_conv2d_q_into(in, l, qweights, wparams, qbias, out);
  return out;
}

void fully_connected_q_into(const QTensor& in, const Layer& l,
                            std::span<const std::int8_t> qweights,
                            const QuantParams& wparams,
                            std::span<const std::int32_t> qbias,
                            QTensor& out) {
  const std::int64_t in_features = in.elements();
  QMCU_REQUIRE(out.shape() == TensorShape(1, 1, l.out_channels),
               "fully_connected_q: destination shape mismatch");
  const QuantParams& out_params = out.params();
  const auto& ip = in.params();
  const FixedPointMultiplier m = quantize_multiplier(
      static_cast<double>(ip.scale) * wparams.scale / out_params.scale);
  const auto [act_lo, act_hi] = activation_range(l.act, out_params);
  const auto x = in.data();
  auto y = out.data();
  for (int o = 0; o < l.out_channels; ++o) {
    std::int32_t acc = qbias.empty() ? 0 : qbias[static_cast<std::size_t>(o)];
    const std::size_t wbase =
        static_cast<std::size_t>(o) * static_cast<std::size_t>(in_features);
    for (std::int64_t i = 0; i < in_features; ++i) {
      const std::int32_t xv =
          static_cast<std::int32_t>(x[static_cast<std::size_t>(i)]) -
          ip.zero_point;
      acc += xv * qweights[wbase + static_cast<std::size_t>(i)];
    }
    const std::int32_t q = clamp_to(
        apply_multiplier(acc, m) + out_params.zero_point, act_lo, act_hi);
    y[static_cast<std::size_t>(o)] = static_cast<std::int8_t>(q);
  }
}

QTensor fully_connected_q(const QTensor& in, const Layer& l,
                          std::span<const std::int8_t> qweights,
                          const QuantParams& wparams,
                          std::span<const std::int32_t> qbias,
                          const QuantParams& out_params) {
  QTensor out(TensorShape{1, 1, l.out_channels}, out_params);
  fully_connected_q_into(in, l, qweights, wparams, qbias, out);
  return out;
}

void max_pool_q_into(const QTensor& in, const Layer& l, QTensor& out) {
  const TensorShape& is = in.shape();
  const TensorShape os = conv_output_shape(is, l, is.c);
  QMCU_REQUIRE(out.shape() == os, "max_pool_q: destination shape mismatch");
  QMCU_REQUIRE(out.params() == in.params(),
               "max_pool_q: pools keep the input params");
  const std::int8_t* x = in.data().data();
  std::int8_t* y = out.data().data();
  const int c = is.c;
  for (int oy = 0; oy < os.h; ++oy) {
    const int iy0 = oy * l.stride_h - l.pad_h;
    const KernelRange kyr = valid_kernel_range(iy0, l.kernel_h, is.h);
    for (int ox = 0; ox < os.w; ++ox) {
      const int ix0 = ox * l.stride_w - l.pad_w;
      const KernelRange kxr = valid_kernel_range(ix0, l.kernel_w, is.w);
      std::int8_t* yrow =
          y + static_cast<std::size_t>(flat_index(os, oy, ox, 0));
      for (int ch = 0; ch < c; ++ch) {
        std::int32_t best = std::numeric_limits<std::int32_t>::min();
        for (int ky = kyr.lo; ky < kyr.hi; ++ky) {
          const std::int8_t* xrow =
              x + static_cast<std::size_t>(
                      flat_index(is, iy0 + ky, ix0 + kxr.lo, ch));
          for (int kx = kxr.lo; kx < kxr.hi; ++kx) {
            best = std::max(best, static_cast<std::int32_t>(*xrow));
            xrow += c;
          }
        }
        yrow[ch] = static_cast<std::int8_t>(best);
      }
    }
  }
}

QTensor max_pool_q(const QTensor& in, const Layer& l) {
  QTensor out(conv_output_shape(in.shape(), l, in.shape().c), in.params());
  max_pool_q_into(in, l, out);
  return out;
}

void avg_pool_q_into(const QTensor& in, const Layer& l, QTensor& out) {
  const AvgPoolMultipliers avg(l.kernel_h * l.kernel_w);
  avg_pool_q_into(in, l, avg, out);
}

void avg_pool_q_into(const QTensor& in, const Layer& l,
                     const AvgPoolMultipliers& avg, QTensor& out) {
  const TensorShape& is = in.shape();
  const TensorShape os = conv_output_shape(is, l, is.c);
  QMCU_REQUIRE(out.shape() == os, "avg_pool_q: destination shape mismatch");
  QMCU_REQUIRE(out.params() == in.params(),
               "avg_pool_q: pools keep the input params");
  const std::int32_t qmin = in.params().qmin();
  const std::int32_t qmax = in.params().qmax();
  const std::int8_t* x = in.data().data();
  std::int8_t* y = out.data().data();
  const int c = is.c;
  for (int oy = 0; oy < os.h; ++oy) {
    const int iy0 = oy * l.stride_h - l.pad_h;
    const KernelRange kyr = valid_kernel_range(iy0, l.kernel_h, is.h);
    for (int ox = 0; ox < os.w; ++ox) {
      const int ix0 = ox * l.stride_w - l.pad_w;
      const KernelRange kxr = valid_kernel_range(ix0, l.kernel_w, is.w);
      const int count = kyr.count() * kxr.count();
      std::int8_t* yrow =
          y + static_cast<std::size_t>(flat_index(os, oy, ox, 0));
      for (int ch = 0; ch < c; ++ch) {
        std::int32_t q;
        if (count > 0) {
          std::int32_t sum = 0;
          for (int ky = kyr.lo; ky < kyr.hi; ++ky) {
            const std::int8_t* xrow =
                x + static_cast<std::size_t>(
                        flat_index(is, iy0 + ky, ix0 + kxr.lo, ch));
            for (int kx = kxr.lo; kx < kxr.hi; ++kx) {
              sum += *xrow;
              xrow += c;
            }
          }
          q = avg.average(sum, count);
        } else {
          q = in.params().zero_point;
        }
        yrow[ch] = static_cast<std::int8_t>(clamp_to(q, qmin, qmax));
      }
    }
  }
}

QTensor avg_pool_q(const QTensor& in, const Layer& l) {
  QTensor out(conv_output_shape(in.shape(), l, in.shape().c), in.params());
  avg_pool_q_into(in, l, out);
  return out;
}

void global_avg_pool_q_into(const QTensor& in, std::span<std::int32_t> sums,
                            QTensor& out) {
  const TensorShape& is = in.shape();
  QMCU_REQUIRE(out.shape() == TensorShape(1, 1, is.c),
               "global_avg_pool_q: destination shape mismatch");
  QMCU_REQUIRE(out.params() == in.params(),
               "global_avg_pool_q: pools keep the input params");
  QMCU_REQUIRE(static_cast<std::int64_t>(sums.size()) >= is.c,
               "global_avg_pool_q: sums scratch too small");
  const int pixels = is.h * is.w;
  const ElementRequantizer mean(1.0 / pixels, 128 * pixels);
  const std::int32_t qmin = in.params().qmin();
  const std::int32_t qmax = in.params().qmax();
  std::fill(sums.begin(), sums.begin() + is.c, 0);
  const std::int8_t* p = in.data().data();
  for (int i = 0; i < pixels; ++i) {
    for (int ch = 0; ch < is.c; ++ch) {
      sums[static_cast<std::size_t>(ch)] += p[ch];
    }
    p += is.c;
  }
  for (int ch = 0; ch < is.c; ++ch) {
    out.at(0, 0, ch) = static_cast<std::int8_t>(clamp_to(
        mean.apply(sums[static_cast<std::size_t>(ch)]), qmin, qmax));
  }
}

void add_q_into(const QTensor& lhs, const QTensor& rhs, Activation act,
                QTensor& out, const simd::SimdKernels* simd) {
  QMCU_REQUIRE(lhs.shape() == rhs.shape(), "add operand shape mismatch");
  QMCU_REQUIRE(out.shape() == lhs.shape(),
               "add_q: destination shape mismatch");
  const QuantParams& out_params = out.params();
  const auto& lp = lhs.params();
  const auto& rp = rhs.params();
  const auto [act_lo, act_hi] = activation_range(act, out_params);
  // TFLite integer Add: both operands are rescaled onto a shared grid at
  // 2*max(scale) with 20 bits of shifted headroom, summed in int32, then
  // rescaled once into the output params. No per-element float math.
  simd::run_add_row(simd, lhs.data().data(), rhs.data().data(),
                    static_cast<std::int64_t>(out.data().size()),
                    lp.zero_point, rp.zero_point,
                    add_multipliers(lp.scale, rp.scale, out_params.scale),
                    out_params.zero_point, act_lo, act_hi, out.data().data());
}

QTensor add_q(const QTensor& lhs, const QTensor& rhs, Activation act,
              const QuantParams& out_params) {
  QTensor out(lhs.shape(), out_params);
  add_q_into(lhs, rhs, act, out);
  return out;
}

void concat_q_into(std::span<const QTensor* const> inputs, QTensor& out) {
  QMCU_REQUIRE(!inputs.empty(), "concat needs inputs");
  const TensorShape& first = inputs[0]->shape();
  int channels = 0;
  for (const QTensor* t : inputs) {
    QMCU_REQUIRE(t->shape().h == first.h && t->shape().w == first.w,
                 "concat inputs must agree spatially");
    channels += t->shape().c;
  }
  QMCU_REQUIRE(out.shape() == TensorShape(first.h, first.w, channels),
               "concat_q: destination shape mismatch");
  const QuantParams& out_params = out.params();
  const std::int32_t qmin = out_params.qmin();
  const std::int32_t qmax = out_params.qmax();
  std::int8_t* y = out.data().data();
  const int pixels = first.h * first.w;
  int co = 0;
  for (const QTensor* t : inputs) {
    const auto& p = t->params();
    const int tc = t->shape().c;
    const std::int8_t* src = t->data().data();
    std::int8_t* dst = y + co;
    if (p == out_params) {
      // Matching params: the slice is a raw channel-block copy.
      for (int i = 0; i < pixels; ++i) {
        std::memcpy(dst, src, static_cast<std::size_t>(tc));
        src += tc;
        dst += channels;
      }
    } else {
      const ElementRequantizer r(static_cast<double>(p.scale) /
                                 static_cast<double>(out_params.scale));
      for (int i = 0; i < pixels; ++i) {
        for (int ch = 0; ch < tc; ++ch) {
          const std::int32_t q =
              r.apply(static_cast<std::int32_t>(src[ch]) - p.zero_point) +
              out_params.zero_point;
          dst[ch] = static_cast<std::int8_t>(clamp_to(q, qmin, qmax));
        }
        src += tc;
        dst += channels;
      }
    }
    co += tc;
  }
}

QTensor softmax_q(const QTensor& in, const QuantParams& out_params) {
  const Tensor real = dequantize(in);
  const Tensor soft = softmax_f32(real);
  return quantize(soft, out_params);
}

void requantize_q_into(const QTensor& q, QTensor& out) {
  QMCU_REQUIRE(out.shape() == q.shape(),
               "requantize_q: destination shape mismatch");
  const QuantParams& target = out.params();
  const auto src = q.data();
  auto dst = out.data();
  if (q.params() == target) {
    std::memcpy(dst.data(), src.data(), src.size());
    return;
  }
  const auto& p = q.params();
  const ElementRequantizer r(static_cast<double>(p.scale) /
                             static_cast<double>(target.scale));
  requant_i8_row_scalar(src.data(), static_cast<std::int64_t>(src.size()),
                        p.zero_point, r.left_shift(), r.multiplier(),
                        target.zero_point, target.qmin(), target.qmax(),
                        dst.data());
}

}  // namespace qmcu::nn::ops
