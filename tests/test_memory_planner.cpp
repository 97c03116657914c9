// Tests for the arena memory planner (nn/memory_planner.h).
#include <gtest/gtest.h>

#include "models/weights.h"
#include "nn/memory_planner.h"
#include "nn/ops/backend.h"
#include "nn/ops/int8_kernels.h"
#include "scoped_env.h"

namespace qmcu::nn {
namespace {

TEST(MemoryPlanner, ChainPeakIsAdjacentPair) {
  Graph g("chain");
  const int in = g.add_input(TensorShape{8, 8, 4});    // 256 B at int8
  const int a = g.add_conv2d(in, 16, 3, 1, 1, Activation::ReLU);  // 1024 B
  const int b = g.add_conv2d(a, 2, 3, 2, 1, Activation::ReLU);    // 32 B
  g.add_global_avg_pool(b);
  const MemoryPlan plan = plan_layer_based(g, uniform_bits(g, 8));
  // Peak while running `a`: input (256) + a's output (1024).
  EXPECT_EQ(plan.peak_bytes, 256 + 1024);
  EXPECT_EQ(plan.peak_step, a);
}

TEST(MemoryPlanner, ResidualKeepsSkipTensorAlive) {
  Graph g("res");
  const int in = g.add_input(TensorShape{8, 8, 8});  // 512 B
  const int a = g.add_conv2d(in, 8, 3, 1, 1, Activation::ReLU);  // 512 B
  const int b = g.add_conv2d(a, 8, 3, 1, 1, Activation::None);   // 512 B
  g.add_residual_add(in, b, Activation::ReLU);  // consumes `in` again
  const MemoryPlan plan = plan_layer_based(g, uniform_bits(g, 8));
  // While running b: in (skip, still live) + a + b = 1536.
  EXPECT_EQ(plan.peak_bytes, 512 * 3);
}

TEST(MemoryPlanner, WithoutSkipTensorIsFreedEarlier) {
  Graph g("chain");
  const int in = g.add_input(TensorShape{8, 8, 8});
  const int a = g.add_conv2d(in, 8, 3, 1, 1, Activation::ReLU);
  const int b = g.add_conv2d(a, 8, 3, 1, 1, Activation::None);
  g.add_conv2d(b, 8, 3, 1, 1, Activation::None);
  const MemoryPlan plan = plan_layer_based(g, uniform_bits(g, 8));
  EXPECT_EQ(plan.peak_bytes, 512 * 2);  // only producer+consumer pairs
}

TEST(MemoryPlanner, SubByteBitsShrinkFootprint) {
  Graph g("t");
  const int in = g.add_input(TensorShape{8, 8, 8});
  g.add_conv2d(in, 8, 3, 1, 1, Activation::ReLU);
  const auto p8 = plan_layer_based(g, uniform_bits(g, 8));
  const auto p4 = plan_layer_based(g, uniform_bits(g, 4));
  const auto p2 = plan_layer_based(g, uniform_bits(g, 2));
  EXPECT_EQ(p4.peak_bytes * 2, p8.peak_bytes);
  EXPECT_EQ(p2.peak_bytes * 4, p8.peak_bytes);
}

TEST(MemoryPlanner, MixedBitsPriceEachTensorSeparately) {
  Graph g("t");
  const int in = g.add_input(TensorShape{8, 8, 8});  // layer 0
  g.add_conv2d(in, 8, 3, 1, 1, Activation::ReLU);    // layer 1
  std::vector<int> bits{4, 8};
  const auto plan = plan_layer_based(g, bits);
  EXPECT_EQ(plan.peak_bytes, 512 / 2 + 512);
}

TEST(MemoryPlanner, LastUseStepFollowsConsumers) {
  Graph g("t");
  const int in = g.add_input(TensorShape{8, 8, 4});
  const int a = g.add_conv2d(in, 4, 3, 1, 1, Activation::ReLU);
  const int b = g.add_conv2d(a, 4, 3, 1, 1, Activation::ReLU);
  const int c = g.add_residual_add(a, b, Activation::None);
  EXPECT_EQ(last_use_step(g, in), a);
  EXPECT_EQ(last_use_step(g, a), c);  // kept alive by the residual
  EXPECT_EQ(last_use_step(g, c), c);  // unconsumed output
}

TEST(MemoryPlanner, StepBytesHasOneEntryPerLayer) {
  Graph g("t");
  const int in = g.add_input(TensorShape{4, 4, 2});
  g.add_conv2d(in, 2, 1, 1, 0, Activation::None);
  const auto plan = plan_layer_based(g, uniform_bits(g, 8));
  EXPECT_EQ(static_cast<int>(plan.step_bytes.size()), g.size());
}

TEST(MemoryPlanner, FlashBytesCountWeightsAndBias) {
  Graph g("t");
  const int in = g.add_input(TensorShape{4, 4, 2});
  g.add_conv2d(in, 3, 1, 1, 0, Activation::None);  // 6 weights + 3 biases
  EXPECT_EQ(model_flash_bytes(g, 8), 6 + 3 * 4);
  EXPECT_EQ(model_flash_bytes(g, 4), 3 + 3 * 4);
}

TEST(MemoryPlanner, RejectsMismatchedBitsVector) {
  Graph g("t");
  g.add_input(TensorShape{4, 4, 2});
  const std::vector<int> wrong{8, 8, 8};
  EXPECT_THROW(plan_layer_based(g, wrong), std::invalid_argument);
}

TEST(MemoryPlanner, AccountsFastBackendScratch) {
  Graph g("t");
  const int in = g.add_input(TensorShape{8, 8, 4});
  const int conv = g.add_conv2d(in, 16, 3, 1, 1, Activation::ReLU);
  g.add_depthwise_conv2d(conv, 3, 1, 1, Activation::ReLU);
  const auto plan = plan_layer_based(g, uniform_bits(g, 8));

  // Conv scratch: k-major panel (n*k) + im2col strip (out_w*k) + int32
  // wsum/offset/accumulators (6n words).
  const std::int64_t k = 3 * 3 * 4;
  const std::int64_t expect_conv = 16 * k + 8 * k + (16 + 16 + 4 * 16) * 4;
  EXPECT_EQ(plan.step_scratch_bytes[static_cast<std::size_t>(conv)],
            expect_conv);
  EXPECT_EQ(fast_scratch_bytes(g, conv), expect_conv);
  // Depthwise scratch: per-channel int32 accumulators.
  EXPECT_EQ(plan.step_scratch_bytes[2], 16 * 4);
  EXPECT_EQ(plan.scratch_peak_bytes, expect_conv);
  // The honest arena peak includes the scratch live at the peak step.
  EXPECT_GE(plan.total_peak_bytes, plan.peak_bytes);
  EXPECT_EQ(plan.total_peak_bytes,
            plan.step_bytes[static_cast<std::size_t>(conv)] + expect_conv);
  // Resident panel bytes: bt + wsum of the single Conv2D.
  EXPECT_EQ(plan.panel_bytes, 16 * k + 16 * 4);
  EXPECT_EQ(fast_panel_bytes(g, conv), 16 * k + 16 * 4);
}

TEST(MemoryPlanner, ScratchModelMatchesMeasuredBackendFootprint) {
  // The planner's per-layer scratch estimate hand-mirrors the scalar
  // backend's layout; this pins the two together: after one conv on a
  // fresh uncached-panel backend on the scalar table, the ScratchArena's
  // measured footprint must equal fast_scratch_bytes exactly — for int8
  // inputs and for 2/4-bit ones held on int8 storage.
  Graph g("t");
  const int in = g.add_input(TensorShape{8, 8, 4});
  const int conv = g.add_conv2d(in, 16, 3, 1, 1, Activation::ReLU);
  models::init_parameters(g, 5);

  const test::ScopedEnv scalar("QMCU_FORCE_SCALAR", "1");
  const QuantParams out_p = choose_quant_params(-2.0f, 2.0f, 8);
  const ops::QuantizedWeights qw = ops::quantize_weights(g.weights(conv));
  for (int bits : {8, 4, 2}) {
    const QuantParams in_p = choose_quant_params(-1.0f, 1.0f, bits);
    const QTensor qin(g.shape(in), in_p);
    ops::KernelBackend backend(ops::KernelTier::Simd,
                               /*cache_weight_panels=*/false);
    ASSERT_EQ(backend.simd_kernels(), nullptr);
    QTensor out(g.shape(conv), out_p);
    backend.conv2d_into(qin, g.layer(conv), qw.data, qw.params, {}, out);
    EXPECT_EQ(static_cast<std::int64_t>(backend.arena().footprint_bytes()),
              fast_scratch_bytes(g, conv))
        << bits << "-bit input";
  }
}

TEST(MemoryPlanner, ScratchCoversSoftmaxFloatDetour) {
  Graph g("t");
  const int in = g.add_input(TensorShape{1, 1, 10});
  const int fc = g.add_fully_connected(in, 10, Activation::None);
  const int sm = g.add_softmax(fc);
  const auto plan = plan_layer_based(g, uniform_bits(g, 8));
  // fc scratch: uncached k-major panel (n*k) + wsum/offset/acc (3n words).
  EXPECT_EQ(plan.step_scratch_bytes[static_cast<std::size_t>(fc)],
            10 * 10 + (10 + 10 + 10) * 4);
  EXPECT_EQ(plan.step_scratch_bytes[static_cast<std::size_t>(sm)],
            2 * 10 * 4);
}

}  // namespace
}  // namespace qmcu::nn
