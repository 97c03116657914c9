// Unit tests for the integer kernels (nn/ops/int8_kernels.h): quantized
// results must track the float reference within scale-derived bounds.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "kernel_values.h"
#include "nn/ops/backend.h"
#include "nn/ops/float_kernels.h"
#include "nn/ops/im2col.h"
#include "nn/ops/int8_kernels.h"
#include "nn/rng.h"

namespace qmcu::nn::ops {
namespace {

using test::value_of;

Layer conv_layer(int out_c, int k, int s, int p, Activation act) {
  Layer l;
  l.kind = OpKind::Conv2D;
  l.kernel_h = l.kernel_w = k;
  l.stride_h = l.stride_w = s;
  l.pad_h = l.pad_w = p;
  l.out_channels = out_c;
  l.act = act;
  return l;
}

Tensor random_tensor(TensorShape s, std::uint64_t seed, double stddev = 1.0) {
  Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

struct QuantizedConvCase {
  int kernel;
  int stride;
  int pad;
  Activation act;
};

class QuantizedConv : public ::testing::TestWithParam<QuantizedConvCase> {};

TEST_P(QuantizedConv, TracksFloatReference) {
  const auto [k, s, p, act] = GetParam();
  const TensorShape in_shape{9, 9, 4};
  const int out_c = 6;
  const Tensor in = random_tensor(in_shape, 11);
  std::vector<float> w(static_cast<std::size_t>(out_c * k * k * in_shape.c));
  std::vector<float> bias(static_cast<std::size_t>(out_c));
  nn::Rng rng(22);
  for (float& v : w) v = static_cast<float>(rng.normal(0.0, 0.2));
  for (float& v : bias) v = static_cast<float>(rng.uniform(-0.2, 0.2));

  const Layer l = conv_layer(out_c, k, s, p, act);
  const Tensor ref =
      value_of(conv2d_f32_into, Tensor(conv_output_shape(in_shape, l, out_c)),
               in, l, w, bias);

  // Quantize input / weights / output ranges.
  const auto [in_lo, in_hi] = tensor_min_max(in);
  const QuantParams in_p = choose_quant_params(in_lo, in_hi, 8);
  const QTensor qin = quantize(in, in_p);
  const QuantizedWeights qw = quantize_weights(w);
  const auto qbias = quantize_bias(bias, in_p.scale, qw.params.scale);
  const auto [out_lo, out_hi] = tensor_min_max(ref);
  const QuantParams out_p = choose_quant_params(out_lo, out_hi, 8);

  const QTensor qout =
      value_of(conv2d_q_into, QTensor(ref.shape(), out_p), qin, l, qw.data,
               qw.params, qbias);
  ASSERT_EQ(qout.shape(), ref.shape());

  // Error bound: output quantization step + accumulated input/weight noise.
  const double bound =
      static_cast<double>(out_p.scale) * 2.0 +
      static_cast<double>(in_p.scale) * 0.5 * k * k * in_shape.c * 0.2;
  const Tensor deq = dequantize(qout);
  for (std::size_t i = 0; i < deq.data().size(); ++i) {
    EXPECT_NEAR(deq.data()[i], ref.data()[i], bound) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, QuantizedConv,
    ::testing::Values(QuantizedConvCase{1, 1, 0, Activation::None},
                      QuantizedConvCase{3, 1, 1, Activation::ReLU},
                      QuantizedConvCase{3, 2, 1, Activation::ReLU6},
                      QuantizedConvCase{5, 1, 2, Activation::None},
                      QuantizedConvCase{5, 2, 2, Activation::ReLU6}));

TEST(QuantizedDepthwise, TracksFloatReference) {
  const TensorShape in_shape{7, 7, 8};
  const Tensor in = random_tensor(in_shape, 5);
  std::vector<float> w(static_cast<std::size_t>(3 * 3 * in_shape.c));
  nn::Rng rng(6);
  for (float& v : w) v = static_cast<float>(rng.normal(0.0, 0.3));
  Layer l;
  l.kind = OpKind::DepthwiseConv2D;
  l.kernel_h = l.kernel_w = 3;
  l.stride_h = l.stride_w = 1;
  l.pad_h = l.pad_w = 1;
  l.act = Activation::ReLU6;

  const Tensor ref =
      value_of(depthwise_conv2d_f32_into, Tensor(in_shape), in, l, w,
               std::span<const float>{});
  const auto [in_lo, in_hi] = tensor_min_max(in);
  const QuantParams in_p = choose_quant_params(in_lo, in_hi, 8);
  const QuantizedWeights qw = quantize_weights(w);
  const auto [out_lo, out_hi] = tensor_min_max(ref);
  const QuantParams out_p = choose_quant_params(out_lo, out_hi, 8);
  const QTensor qout =
      value_of(depthwise_conv2d_q_into, QTensor(in_shape, out_p),
               quantize(in, in_p), l, qw.data, qw.params,
               std::span<const std::int32_t>{});
  const Tensor deq = dequantize(qout);
  const double bound = static_cast<double>(out_p.scale) * 2.0 +
                       static_cast<double>(in_p.scale) * 0.5 * 9 * 0.3;
  for (std::size_t i = 0; i < deq.data().size(); ++i) {
    EXPECT_NEAR(deq.data()[i], ref.data()[i], bound);
  }
}

TEST(QuantizedFullyConnected, TracksFloatReference) {
  const Tensor in = random_tensor(TensorShape{1, 1, 32}, 9);
  std::vector<float> w(32 * 10);
  nn::Rng rng(10);
  for (float& v : w) v = static_cast<float>(rng.normal(0.0, 0.2));
  Layer l;
  l.kind = OpKind::FullyConnected;
  l.out_channels = 10;

  const Tensor ref =
      value_of(fully_connected_f32_into, Tensor(TensorShape{1, 1, 10}), in, l,
               w, std::span<const float>{});
  const auto [in_lo, in_hi] = tensor_min_max(in);
  const QuantParams in_p = choose_quant_params(in_lo, in_hi, 8);
  const QuantizedWeights qw = quantize_weights(w);
  const auto [out_lo, out_hi] = tensor_min_max(ref);
  const QuantParams out_p = choose_quant_params(out_lo, out_hi, 8);
  const QTensor qout =
      value_of(fully_connected_q_into, QTensor(TensorShape{1, 1, 10}, out_p),
               quantize(in, in_p), l, qw.data, qw.params,
               std::span<const std::int32_t>{});
  const Tensor deq = dequantize(qout);
  for (int c = 0; c < 10; ++c) {
    EXPECT_NEAR(deq.at(0, 0, c), ref.at(0, 0, c),
                static_cast<double>(out_p.scale) * 2.0 + 0.35);
  }
}

TEST(QuantizedMaxPool, ExactOnQuantizedGrid) {
  const QuantParams p = choose_quant_params(-1.0f, 1.0f, 8);
  QTensor in(TensorShape{2, 2, 1}, p);
  in.at(0, 0, 0) = 5;
  in.at(0, 1, 0) = -20;
  in.at(1, 0, 0) = 77;
  in.at(1, 1, 0) = 3;
  Layer l;
  l.kind = OpKind::MaxPool;
  l.kernel_h = l.kernel_w = 2;
  l.stride_h = l.stride_w = 2;
  const QTensor out =
      value_of(max_pool_q_into, QTensor(TensorShape{1, 1, 1}, p), in, l);
  EXPECT_EQ(out.at(0, 0, 0), 77);
  EXPECT_EQ(out.params(), p);
}

TEST(QuantizedAvgPool, RoundsToNearest) {
  const QuantParams p = choose_quant_params(-1.0f, 1.0f, 8);
  QTensor in(TensorShape{1, 2, 1}, p);
  in.at(0, 0, 0) = 3;
  in.at(0, 1, 0) = 4;
  Layer l;
  l.kind = OpKind::AvgPool;
  l.kernel_h = 1;
  l.kernel_w = 2;
  l.stride_h = 1;
  l.stride_w = 2;
  const QTensor out =
      value_of(avg_pool_q_into, QTensor(TensorShape{1, 1, 1}, p), in, l,
               AvgPoolMultipliers(2));
  EXPECT_EQ(out.at(0, 0, 0), 4);  // 3.5 rounds to 4
}

TEST(QuantizedAdd, RescalesMismatchedInputScales) {
  const QuantParams pa = choose_quant_params(0.0f, 1.0f, 8);
  const QuantParams pb = choose_quant_params(0.0f, 2.0f, 8);
  const QuantParams po = choose_quant_params(0.0f, 3.0f, 8);
  QTensor a(TensorShape{1, 1, 1}, pa);
  QTensor b(TensorShape{1, 1, 1}, pb);
  a.at(0, 0, 0) = static_cast<std::int8_t>(pa.quantize(1.0f));
  b.at(0, 0, 0) = static_cast<std::int8_t>(pb.quantize(2.0f));
  QTensor out(a.shape(), po);
  add_q_into(a, b, Activation::None, out);
  EXPECT_NEAR(po.dequantize(out.at(0, 0, 0)), 3.0f, po.scale * 2.0f);
}

TEST(QuantizedSoftmax, ProbabilitiesSumToOne) {
  const QuantParams pin = choose_quant_params(-8.0f, 8.0f, 8);
  QTensor in(TensorShape{1, 1, 4}, pin);
  in.at(0, 0, 0) = 10;
  in.at(0, 0, 1) = 30;
  in.at(0, 0, 2) = -5;
  in.at(0, 0, 3) = 0;
  const QuantParams pout = choose_quant_params(0.0f, 1.0f, 8);
  KernelBackend backend(KernelTier::Reference);
  const QTensor out = value_of(backend, &KernelBackend::softmax_into,
                               QTensor(in.shape(), pout), in);
  float sum = 0.0f;
  for (int c = 0; c < 4; ++c) sum += pout.dequantize(out.at(0, 0, c));
  EXPECT_NEAR(sum, 1.0f, 4.0f * pout.scale);
}

TEST(ActivationRange, ReluClampsAtZeroPoint) {
  const QuantParams p = choose_quant_params(-2.0f, 2.0f, 8);
  const auto [lo, hi] = activation_range(Activation::ReLU, p);
  EXPECT_EQ(lo, p.zero_point);
  EXPECT_EQ(hi, p.qmax());
}

TEST(ActivationRange, Relu6ClampsAtSix) {
  const QuantParams p = choose_quant_params(0.0f, 8.0f, 8);
  const auto [lo, hi] = activation_range(Activation::ReLU6, p);
  EXPECT_EQ(lo, p.zero_point);
  EXPECT_EQ(hi, p.quantize(6.0f));
}

TEST(QuantizeWeights, SymmetricAndLossBounded) {
  std::vector<float> w{0.5f, -1.5f, 0.25f, 1.5f};
  const QuantizedWeights qw = quantize_weights(w);
  EXPECT_EQ(qw.params.zero_point, 0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(qw.params.dequantize(qw.data[i]), w[i],
                qw.params.scale * 0.5f + 1e-6f);
  }
}

TEST(QuantizeBias, UsesProductScale) {
  const std::vector<float> bias{1.0f, -0.5f};
  const auto qb = quantize_bias(bias, 0.1f, 0.01f);
  EXPECT_EQ(qb[0], 1000);
  EXPECT_EQ(qb[1], -500);
}

}  // namespace
}  // namespace qmcu::nn::ops
