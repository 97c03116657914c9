// Tests for the simulated-quantization forward pass (quant/fake_quant.h).
#include <gtest/gtest.h>

#include "models/weights.h"
#include "nn/executor.h"
#include "nn/memory_planner.h"
#include "nn/rng.h"
#include "quant/fake_quant.h"

namespace qmcu::quant {
namespace {

nn::Graph net() {
  nn::Graph g("t");
  const int in = g.add_input(nn::TensorShape{12, 12, 3});
  const int a = g.add_conv2d(in, 8, 3, 2, 1, nn::Activation::ReLU6);
  const int b = g.add_conv2d(a, 8, 3, 1, 1, nn::Activation::ReLU);
  const int gap = g.add_global_avg_pool(b);
  g.add_fully_connected(gap, 4, nn::Activation::None);
  models::init_parameters(g, 21);
  return g;
}

nn::Tensor input(std::uint64_t seed) {
  nn::Tensor t(nn::TensorShape{12, 12, 3});
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

TEST(FakeQuantRun, EightBitStaysCloseToFloat) {
  const nn::Graph g = net();
  const std::vector<nn::Tensor> calib{input(1), input(2)};
  const auto ranges = calibrate_ranges(g, calib);
  nn::ops::KernelBackend backend;
  const nn::Executor exec(g);
  const nn::Tensor in = input(3);
  const nn::Tensor ref = exec.run(in);
  const nn::Tensor fq =
      run_fake_quantized(g, ranges, nn::uniform_bits(g, 8), in, backend);
  EXPECT_LT(output_mse(fq, ref), 1e-3);
}

TEST(FakeQuantRun, MseGrowsAsBitsShrink) {
  const nn::Graph g = net();
  const std::vector<nn::Tensor> calib{input(4)};
  const auto ranges = calibrate_ranges(g, calib);
  nn::ops::KernelBackend backend;
  const nn::Executor exec(g);
  const nn::Tensor in = input(5);
  const nn::Tensor ref = exec.run(in);
  const double e8 =
      output_mse(run_fake_quantized(g, ranges, nn::uniform_bits(g, 8), in,
                                    backend),
                 ref);
  const double e4 =
      output_mse(run_fake_quantized(g, ranges, nn::uniform_bits(g, 4), in,
                                    backend),
                 ref);
  const double e2 =
      output_mse(run_fake_quantized(g, ranges, nn::uniform_bits(g, 2), in,
                                    backend),
                 ref);
  EXPECT_LE(e8, e4);
  EXPECT_LT(e4, e2);
}

TEST(FakeQuantRun, PerLayerBitsAreHonoured) {
  const nn::Graph g = net();
  const std::vector<nn::Tensor> calib{input(6)};
  const auto ranges = calibrate_ranges(g, calib);
  nn::ops::KernelBackend backend;
  const nn::Tensor in = input(7);
  // Degrading only the first conv differs from degrading only the second.
  std::vector<int> first_low = nn::uniform_bits(g, 8);
  first_low[1] = 2;
  std::vector<int> second_low = nn::uniform_bits(g, 8);
  second_low[2] = 2;
  const nn::Tensor a = run_fake_quantized(g, ranges, first_low, in, backend);
  const nn::Tensor b = run_fake_quantized(g, ranges, second_low, in, backend);
  EXPECT_GT(output_mse(a, b), 0.0);
}

TEST(FakeQuantRun, ValidatesVectorSizes) {
  const nn::Graph g = net();
  const std::vector<nn::Tensor> calib{input(8)};
  const auto ranges = calibrate_ranges(g, calib);
  nn::ops::KernelBackend backend;
  const std::vector<int> short_bits{8};
  EXPECT_THROW(run_fake_quantized(g, ranges, short_bits, input(9), backend),
               std::invalid_argument);
}

TEST(OutputMse, ZeroForIdenticalTensors) {
  const nn::Tensor t = input(10);
  EXPECT_DOUBLE_EQ(output_mse(t, t), 0.0);
}

TEST(OutputMse, RejectsShapeMismatch) {
  const nn::Tensor a = input(11);
  nn::Tensor b(nn::TensorShape{6, 6, 3});
  EXPECT_THROW(output_mse(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace qmcu::quant
