// Unit tests for the float reference kernels (nn/ops/float_kernels.h).
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "kernel_values.h"
#include "nn/ops/float_kernels.h"

namespace qmcu::nn::ops {
namespace {

using test::value_of;

constexpr std::span<const float> kNoBias{};

Layer conv_layer(int out_c, int k, int s, int p,
                 Activation act = Activation::None) {
  Layer l;
  l.kind = OpKind::Conv2D;
  l.kernel_h = l.kernel_w = k;
  l.stride_h = l.stride_w = s;
  l.pad_h = l.pad_w = p;
  l.out_channels = out_c;
  l.act = act;
  return l;
}

TEST(Conv2D, IdentityKernelCopiesInput) {
  Tensor in(TensorShape{3, 3, 1});
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) in.at(y, x, 0) = static_cast<float>(y * 3 + x);
  }
  // 1x1 kernel with weight 1.
  const std::array<float, 1> w{1.0f};
  const Tensor out = value_of(conv2d_f32_into, Tensor(TensorShape{3, 3, 1}),
                              in, conv_layer(1, 1, 1, 0), w, kNoBias);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      EXPECT_FLOAT_EQ(out.at(y, x, 0), in.at(y, x, 0));
    }
  }
}

TEST(Conv2D, SumKernelWithZeroPadding) {
  Tensor in(TensorShape{2, 2, 1});
  in.at(0, 0, 0) = 1.0f;
  in.at(0, 1, 0) = 2.0f;
  in.at(1, 0, 0) = 3.0f;
  in.at(1, 1, 0) = 4.0f;
  const std::array<float, 9> w{1, 1, 1, 1, 1, 1, 1, 1, 1};
  const Tensor out = value_of(conv2d_f32_into, Tensor(TensorShape{2, 2, 1}),
                              in, conv_layer(1, 3, 1, 1), w, kNoBias);
  // Centre of the padded sum at (0,0): covers the whole 2x2 input.
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 10.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1, 0), 10.0f);
}

TEST(Conv2D, BiasAndReluApplied) {
  Tensor in(TensorShape{1, 1, 1});
  in.at(0, 0, 0) = -5.0f;
  const std::array<float, 1> w{1.0f};
  const std::array<float, 1> bias{2.0f};
  const Tensor out =
      value_of(conv2d_f32_into, Tensor(TensorShape{1, 1, 1}), in,
               conv_layer(1, 1, 1, 0, Activation::ReLU), w, bias);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0.0f);  // relu(-5 + 2)
}

TEST(Conv2D, Relu6Clamps) {
  Tensor in(TensorShape{1, 1, 1});
  in.at(0, 0, 0) = 100.0f;
  const std::array<float, 1> w{1.0f};
  const Tensor out =
      value_of(conv2d_f32_into, Tensor(TensorShape{1, 1, 1}), in,
               conv_layer(1, 1, 1, 0, Activation::ReLU6), w, kNoBias);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 6.0f);
}

TEST(Conv2D, StrideSkipsPositions) {
  Tensor in(TensorShape{4, 4, 1});
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) in.at(y, x, 0) = static_cast<float>(y * 4 + x);
  }
  const std::array<float, 1> w{1.0f};
  Layer l = conv_layer(1, 1, 2, 0);
  const Tensor out = value_of(conv2d_f32_into, Tensor(TensorShape{2, 2, 1}),
                              in, l, w, kNoBias);
  EXPECT_EQ(out.shape().h, 2);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1, 0), 2.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0, 0), 8.0f);
}

TEST(Conv2D, MultiChannelAccumulatesOverInputChannels) {
  Tensor in(TensorShape{1, 1, 3});
  in.at(0, 0, 0) = 1.0f;
  in.at(0, 0, 1) = 2.0f;
  in.at(0, 0, 2) = 3.0f;
  const std::array<float, 6> w{1, 1, 1,    // out channel 0
                               2, 0, -1};  // out channel 1
  const Tensor out = value_of(conv2d_f32_into, Tensor(TensorShape{1, 1, 2}),
                              in, conv_layer(2, 1, 1, 0), w, kNoBias);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 6.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1), -1.0f);
}

TEST(DepthwiseConv2D, ChannelsIndependent) {
  Tensor in(TensorShape{1, 1, 2});
  in.at(0, 0, 0) = 3.0f;
  in.at(0, 0, 1) = 5.0f;
  const std::array<float, 2> w{2.0f, -1.0f};  // 1x1 per-channel weights
  Layer l;
  l.kind = OpKind::DepthwiseConv2D;
  l.kernel_h = l.kernel_w = 1;
  const Tensor out = value_of(depthwise_conv2d_f32_into,
                              Tensor(TensorShape{1, 1, 2}), in, l, w, kNoBias);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 6.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1), -5.0f);
}

TEST(FullyConnected, MatchesMatrixVectorProduct) {
  Tensor in(TensorShape{1, 2, 2});  // flattened: [a b c d]
  in.at(0, 0, 0) = 1.0f;
  in.at(0, 0, 1) = 2.0f;
  in.at(0, 1, 0) = 3.0f;
  in.at(0, 1, 1) = 4.0f;
  Layer l;
  l.kind = OpKind::FullyConnected;
  l.out_channels = 2;
  const std::array<float, 8> w{1, 0, 0, 0,   // picks element 0
                               0, 1, 1, 1};  // sums elements 1..3
  const Tensor out = value_of(fully_connected_f32_into,
                              Tensor(TensorShape{1, 1, 2}), in, l, w, kNoBias);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1), 9.0f);
}

Layer pool_layer(OpKind kind, int k, int s, int p) {
  Layer l;
  l.kind = kind;
  l.kernel_h = l.kernel_w = k;
  l.stride_h = l.stride_w = s;
  l.pad_h = l.pad_w = p;
  return l;
}

TEST(MaxPool, PicksWindowMaximum) {
  Tensor in(TensorShape{2, 2, 1});
  in.at(0, 0, 0) = 1.0f;
  in.at(0, 1, 0) = 9.0f;
  in.at(1, 0, 0) = -3.0f;
  in.at(1, 1, 0) = 4.0f;
  const Tensor out = value_of(max_pool_f32_into, Tensor(TensorShape{1, 1, 1}),
                              in, pool_layer(OpKind::MaxPool, 2, 2, 0));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 9.0f);
}

TEST(MaxPool, PaddingDoesNotIntroduceZeros) {
  // All-negative input with padding: max must stay negative (padding is
  // excluded from the max, not treated as zero).
  Tensor in(TensorShape{2, 2, 1});
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 2; ++x) in.at(y, x, 0) = -5.0f;
  }
  const Tensor out = value_of(max_pool_f32_into, Tensor(TensorShape{2, 2, 1}),
                              in, pool_layer(OpKind::MaxPool, 3, 1, 1));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), -5.0f);
}

TEST(AvgPool, AveragesOnlyValidElements) {
  Tensor in(TensorShape{2, 2, 1});
  in.at(0, 0, 0) = 2.0f;
  in.at(0, 1, 0) = 4.0f;
  in.at(1, 0, 0) = 6.0f;
  in.at(1, 1, 0) = 8.0f;
  // 2x2 window at stride 1 with pad 1: corner window sees one element.
  const Tensor out = value_of(avg_pool_f32_into, Tensor(TensorShape{3, 3, 1}),
                              in, pool_layer(OpKind::AvgPool, 2, 1, 1));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 2.0f);   // only (0,0) valid
  EXPECT_FLOAT_EQ(out.at(1, 1, 0), 5.0f);   // full window
}

TEST(GlobalAvgPool, AveragesWholeMap) {
  Tensor in(TensorShape{2, 2, 2});
  float v = 1.0f;
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 2; ++x) {
      in.at(y, x, 0) = v;
      in.at(y, x, 1) = -v;
      v += 1.0f;
    }
  }
  const Tensor out =
      value_of(global_avg_pool_f32_into, Tensor(TensorShape{1, 1, 2}), in);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 2.5f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1), -2.5f);
}

TEST(Add, ElementwiseWithActivation) {
  Tensor a(TensorShape{1, 1, 2});
  Tensor b(TensorShape{1, 1, 2});
  a.at(0, 0, 0) = 1.0f;
  b.at(0, 0, 0) = 2.0f;
  a.at(0, 0, 1) = -4.0f;
  b.at(0, 0, 1) = 1.0f;
  const Tensor out = value_of(add_f32_into, Tensor(TensorShape{1, 1, 2}), a,
                              b, Activation::ReLU);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1), 0.0f);
}

TEST(Concat, InterleavesChannelsInInputOrder) {
  Tensor a(TensorShape{1, 1, 2});
  Tensor b(TensorShape{1, 1, 1});
  a.at(0, 0, 0) = 1.0f;
  a.at(0, 0, 1) = 2.0f;
  b.at(0, 0, 0) = 3.0f;
  const std::array<const Tensor*, 2> ins{&a, &b};
  const Tensor out =
      value_of(concat_f32_into, Tensor(TensorShape{1, 1, 3}), ins);
  EXPECT_EQ(out.shape().c, 3);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 2), 3.0f);
}

TEST(Softmax, NormalisesAndOrdersProbabilities) {
  Tensor in(TensorShape{1, 1, 3});
  in.at(0, 0, 0) = 1.0f;
  in.at(0, 0, 1) = 2.0f;
  in.at(0, 0, 2) = 3.0f;
  const Tensor out =
      value_of(softmax_f32_into, Tensor(TensorShape{1, 1, 3}), in);
  float sum = 0.0f;
  for (int c = 0; c < 3; ++c) sum += out.at(0, 0, c);
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_LT(out.at(0, 0, 0), out.at(0, 0, 1));
  EXPECT_LT(out.at(0, 0, 1), out.at(0, 0, 2));
}

TEST(Softmax, StableForLargeLogits) {
  Tensor in(TensorShape{1, 1, 2});
  in.at(0, 0, 0) = 1000.0f;
  in.at(0, 0, 1) = 1001.0f;
  const Tensor out =
      value_of(softmax_f32_into, Tensor(TensorShape{1, 1, 2}), in);
  EXPECT_FALSE(std::isnan(out.at(0, 0, 0)));
  EXPECT_NEAR(out.at(0, 0, 0) + out.at(0, 0, 1), 1.0f, 1e-6f);
}

}  // namespace
}  // namespace qmcu::nn::ops
