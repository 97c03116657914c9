// Compiled arena execution (nn/compiled_model.h, patch/compiled_patch_model.h)
// must be bit-identical to the heap-per-layer paths across float and int8
// layer-based models and int8 and mixed sub-byte patch modes (the patch
// models against the per-step oracle of patch_oracle.h), for owned and
// caller-provided arenas, and must share prebuilt QuantizedParameters
// across executors. Uniform-int8 patch models are checked against
// nn::QuantExecutor in test_patch_quant_executor.cpp.
#include <gtest/gtest.h>

#include "core/quantmcu.h"
#include "data/synthetic.h"
#include "models/weights.h"
#include "models/zoo.h"
#include "nn/compiled_model.h"
#include "nn/executor.h"
#include "nn/memory_planner.h"
#include "nn/rng.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "patch_oracle.h"
#include "quant/calibration.h"
#include "scoped_env.h"

namespace qmcu {
namespace {

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

nn::Graph small_net() {
  nn::Graph g("small");
  const int in = g.add_input(nn::TensorShape{16, 16, 3});
  const int stem =
      g.add_conv2d(in, 8, 3, 2, 1, nn::Activation::ReLU6, "stem");
  const int a = g.add_conv2d(stem, 8, 3, 1, 1, nn::Activation::ReLU, "a");
  const int b = g.add_conv2d(a, 8, 3, 1, 1, nn::Activation::None, "b");
  const int add = g.add_residual_add(stem, b, nn::Activation::ReLU, "res");
  const int dw = g.add_depthwise_conv2d(add, 3, 2, 1, nn::Activation::ReLU6);
  const int gap = g.add_global_avg_pool(dw);
  const int fc = g.add_fully_connected(gap, 10, nn::Activation::None);
  g.add_softmax(fc);
  models::init_parameters(g, 42);
  return g;
}

nn::Graph mbv2_net() {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  return models::make_mobilenet_v2(cfg);
}

void expect_f_identical(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

void expect_q_identical(const nn::QTensor& a, const nn::QTensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(a.params(), b.params());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(static_cast<int>(a.data()[i]), static_cast<int>(b.data()[i]))
        << "element " << i;
  }
}

// --- borrowed-storage tensor semantics -------------------------------------

TEST(BorrowedTensor, ViewsAliasAndCopiesDetach) {
  std::vector<float> storage(12, 0.0f);
  nn::Tensor view(nn::TensorShape{2, 2, 3}, std::span<float>(storage));
  EXPECT_FALSE(view.owns_storage());
  view.at(1, 1, 2) = 5.0f;
  EXPECT_EQ(storage[11], 5.0f);  // writes land in the borrowed buffer

  nn::Tensor copy = view;  // deep copy detaches from the arena
  EXPECT_TRUE(copy.owns_storage());
  storage[11] = -1.0f;
  EXPECT_EQ(copy.at(1, 1, 2), 5.0f);

  nn::Tensor moved = std::move(copy);  // move keeps the owned buffer valid
  EXPECT_TRUE(moved.owns_storage());
  EXPECT_EQ(moved.at(1, 1, 2), 5.0f);
}

TEST(BorrowedTensor, QuantizedViewRoundTrips) {
  std::vector<std::int8_t> storage(4, 0);
  const nn::QuantParams p = nn::choose_quant_params(-1.0f, 1.0f, 8);
  nn::QTensor view(nn::TensorShape{1, 1, 4}, p, std::span<std::int8_t>(storage));
  EXPECT_FALSE(view.owns_storage());
  view.at(0, 0, 1) = 7;
  EXPECT_EQ(storage[1], 7);
  nn::QTensor copy = view;
  EXPECT_TRUE(copy.owns_storage());
  EXPECT_EQ(copy.at(0, 0, 1), 7);
}

// --- float parity -----------------------------------------------------------

TEST(CompiledModel, MatchesMemoExecutorBitExact) {
  const nn::Graph g = small_net();
  const nn::Executor exec(g);
  const nn::Tensor in = random_input(g.shape(0), 1);
  const auto memo = exec.run_all(in);  // legacy heap-per-layer path
  expect_f_identical(exec.run(in), memo.back());

  // Both kernel tiers, directly on the compiled model.
  for (const auto tier :
       {nn::ops::KernelTier::Simd, nn::ops::KernelTier::Reference}) {
    const nn::CompiledModel model(g, tier);
    const nn::Executor ref(g, tier);
    expect_f_identical(model.run(in), ref.run_all(in).back());
  }
}

TEST(CompiledModel, CallerProvidedArenaMatchesOwned) {
  const nn::Graph g = small_net();
  const nn::CompiledModel model(g);
  const nn::Tensor in = random_input(g.shape(0), 2);
  const nn::Tensor owned = model.run(in);

  std::vector<std::uint8_t> sram(
      static_cast<std::size_t>(model.arena_bytes()));
  expect_f_identical(model.run(in, sram), owned);
  // Reuse with a second input: no stale state may leak between runs.
  const nn::Tensor in2 = random_input(g.shape(0), 3);
  expect_f_identical(model.run(in2, sram), model.run(in2));
}

TEST(CompiledModel, RejectsUndersizedArena) {
  const nn::Graph g = small_net();
  const nn::CompiledModel model(g);
  std::vector<std::uint8_t> tiny(
      static_cast<std::size_t>(model.arena_bytes() - 1));
  EXPECT_THROW(model.run(random_input(g.shape(0), 4), tiny),
               std::invalid_argument);
}

TEST(CompiledModel, RepeatedRunsAreDeterministic) {
  const nn::Graph g = mbv2_net();
  const nn::CompiledModel model(g);
  const nn::Tensor in = random_input(g.shape(0), 5);
  expect_f_identical(model.run(in), model.run(in));
}

// --- quantized parity --------------------------------------------------------

TEST(CompiledQuantModel, MatchesMemoExecutorAcrossBitwidths) {
  const nn::Graph g = small_net();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 6),
                                      random_input(g.shape(0), 7)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const nn::Tensor in = random_input(g.shape(0), 8);

  // Uniform 8/4/2-bit and a mixed per-layer assignment.
  std::vector<std::vector<int>> assignments{
      nn::uniform_bits(g, 8), nn::uniform_bits(g, 4), nn::uniform_bits(g, 2)};
  std::vector<int> mixed = nn::uniform_bits(g, 8);
  for (std::size_t i = 0; i < mixed.size(); i += 2) mixed[i] = 4;
  assignments.push_back(mixed);

  for (const auto& bits : assignments) {
    const auto cfg = quant::make_quant_config(g, ranges, bits);
    const nn::QuantExecutor qexec(g, cfg);
    const auto memo = qexec.run_all(in);  // legacy heap-per-layer path
    expect_q_identical(qexec.run(in), memo.back());
  }
}

TEST(CompiledQuantModel, ReferenceTierParity) {
  const nn::Graph g = small_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 9)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const nn::Tensor in = random_input(g.shape(0), 10);
  const nn::CompiledQuantModel ref(g, cfg, nn::ops::KernelTier::Reference);
  const nn::QTensor want = ref.run(in);
  const nn::CompiledQuantModel simd(g, cfg, nn::ops::KernelTier::Simd);
  expect_q_identical(simd.run(in), want);
  // The scalar fallbacks, pinned in process so every CI leg checks them.
  const test::ScopedEnv scalar("QMCU_FORCE_SCALAR", "1");
  const nn::CompiledQuantModel fallback(g, cfg, nn::ops::KernelTier::Simd);
  ASSERT_EQ(fallback.backend().simd_kernels(), nullptr);
  expect_q_identical(fallback.run(in), want);
}

TEST(CompiledQuantModel, CallerProvidedArenaMatchesOwned) {
  const nn::Graph g = mbv2_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 11)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const nn::CompiledQuantModel model(g, cfg);
  const nn::Tensor in = random_input(g.shape(0), 12);
  std::vector<std::uint8_t> sram(
      static_cast<std::size_t>(model.arena_bytes()));
  expect_q_identical(model.run(in, sram), model.run(in));
}

TEST(CompiledQuantModel, SharedParametersAcrossExecutors) {
  const nn::Graph g = small_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 13)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const auto params = nn::QuantizedParameters::build_shared(g, cfg);

  const nn::QuantExecutor a(g, cfg, nn::ops::KernelTier::Simd, params);
  const nn::QuantExecutor b(g, cfg, nn::ops::KernelTier::Simd, params);
  EXPECT_EQ(a.shared_parameters().get(), params.get());
  EXPECT_EQ(b.shared_parameters().get(), params.get());
  const nn::QuantExecutor fresh(g, cfg);  // builds its own
  const nn::Tensor in = random_input(g.shape(0), 14);
  expect_q_identical(a.run(in), fresh.run(in));
  expect_q_identical(b.run(in), fresh.run(in));
}

// --- patch parity ------------------------------------------------------------

TEST(CompiledPatchQuantModel, UniformMatchesOracle) {
  const nn::Graph g = mbv2_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 16)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, cfg);
  const nn::Tensor in = random_input(g.shape(0), 17);
  expect_q_identical(model.run(in), test::PatchOracle(model).run(in));
}

TEST(CompiledPatchQuantModel, MixedModeMatchesOracle) {
  const nn::Graph g = mbv2_net();
  data::DataConfig dc;
  dc.resolution = 48;
  const data::SyntheticDataset ds(dc);
  const std::vector<nn::Tensor> calib = ds.batch(0, 2);

  core::QuantMcuConfig qcfg;
  qcfg.patch.grid = 2;
  qcfg.patch.stage_downsample = 4;
  const core::QuantMcuPlan plan = core::build_quantmcu_plan(
      g, mcu::arduino_nano_33_ble_sense(), calib, qcfg);
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto branch_cfgs = core::make_branch_quant_configs(g, plan, ranges);
  const auto deploy_cfg = core::make_deployment_quant_config(g, plan, ranges);
  const patch::CompiledPatchQuantModel model(g, plan.patch_plan, deploy_cfg,
                                             branch_cfgs);
  const nn::Tensor in = ds.image(19);
  expect_q_identical(model.run(in), test::PatchOracle(model).run(in));
}

TEST(CompiledPatchQuantModel, SharedParametersAcrossPatchExecutors) {
  const nn::Graph g = mbv2_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 20)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const auto params = nn::QuantizedParameters::build_shared(g, cfg);
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel a(g, plan, cfg, {},
                                         nn::ops::KernelTier::Simd, params);
  const nn::QuantExecutor layer(g, cfg, nn::ops::KernelTier::Simd, params);
  EXPECT_EQ(a.shared_parameters().get(), params.get());
  const nn::Tensor in = random_input(g.shape(0), 21);
  expect_q_identical(a.run(in), layer.run(in));
}

}  // namespace
}  // namespace qmcu
