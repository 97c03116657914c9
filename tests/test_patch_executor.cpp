// The core correctness invariant of patch-based inference: the compiled
// float patch model must reproduce layer-based results bit for bit (paper
// Fig. 1a — halos exist precisely so that no receptive field is truncated).
// The VDQS planner relies on it: it profiles each branch step's map as a
// crop of the layer-based map.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "models/weights.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "nn/rng.h"
#include "patch/mcunetv2.h"
#include "patch/compiled_patch_model.h"
#include "patch/region_crop.h"

namespace qmcu::patch {
namespace {

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

// Bit for bit: compares the float encodings, not the values within ULPs.
void expect_identical(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.data()[i]),
              std::bit_cast<std::uint32_t>(b.data()[i]))
        << "element " << i;
  }
}

nn::Graph stage_net() {
  nn::Graph g("stage");
  const int in = g.add_input(nn::TensorShape{17, 17, 3});  // odd extent
  const int stem = g.add_conv2d(in, 8, 3, 2, 1, nn::Activation::ReLU6);
  const int a = g.add_conv2d(stem, 8, 3, 1, 1, nn::Activation::ReLU);
  const int res = g.add_residual_add(stem, a, nn::Activation::None);
  const int dw = g.add_depthwise_conv2d(res, 3, 2, 1, nn::Activation::ReLU6);
  const int head = g.add_conv2d(dw, 16, 1, 1, 0, nn::Activation::ReLU);
  const int gap = g.add_global_avg_pool(head);
  g.add_fully_connected(gap, 10, nn::Activation::None);
  models::init_parameters(g, 31);
  return g;
}

struct GridCase {
  int split;
  int grid;
};

class PatchEquivalence : public ::testing::TestWithParam<GridCase> {};

TEST_P(PatchEquivalence, MatchesLayerBasedBitForBit) {
  const auto [split, grid] = GetParam();
  const nn::Graph g = stage_net();
  PatchSpec spec;
  spec.split_layer = split;
  spec.grid_rows = spec.grid_cols = grid;
  const CompiledPatchModel model(g, build_patch_plan(g, spec));
  const nn::Executor exec(g);
  const nn::Tensor in = random_input(g.shape(0), 7);
  expect_identical(model.run(in), exec.run(in));
}

INSTANTIATE_TEST_SUITE_P(SplitsAndGrids, PatchEquivalence,
                         ::testing::Values(GridCase{1, 2}, GridCase{1, 3},
                                           GridCase{3, 2}, GridCase{3, 3},
                                           GridCase{4, 2}, GridCase{4, 4},
                                           GridCase{5, 3}));

TEST(CompiledPatchFloat, MobileNetV2PatchInferenceExact) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  const nn::Graph g = models::make_mobilenet_v2(cfg);
  const PatchSpec spec = plan_mcunetv2(g, {/*grid=*/2, /*downsample=*/4});
  const CompiledPatchModel model(g, build_patch_plan(g, spec));
  const nn::Executor exec(g);
  const nn::Tensor in = random_input(g.shape(0), 9);
  expect_identical(model.run(in), exec.run(in));
}

TEST(CompiledPatchFloat, SqueezeNetConcatStageExact) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.5f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  const nn::Graph g = models::make_squeezenet(cfg);
  const PatchSpec spec = plan_mcunetv2(g, {/*grid=*/2, /*downsample=*/4});
  const CompiledPatchModel model(g, build_patch_plan(g, spec));
  const nn::Executor exec(g);
  const nn::Tensor in = random_input(g.shape(0), 10);
  expect_identical(model.run(in), exec.run(in));
}

TEST(CropFromRegion, ZeroFillsOutOfBounds) {
  nn::Tensor have(nn::TensorShape{2, 2, 1});
  have.at(0, 0, 0) = 1.0f;
  have.at(0, 1, 0) = 2.0f;
  have.at(1, 0, 0) = 3.0f;
  have.at(1, 1, 0) = 4.0f;
  // `have` covers the full 2x2 map; ask for a region extending into padding.
  const nn::Tensor out = crop_from_region(
      have, Region{{0, 2}, {0, 2}}, Region{{-1, 2}, {-1, 2}}, {2, 2, 1});
  EXPECT_EQ(out.shape(), (nn::TensorShape{3, 3, 1}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0.0f);  // padding
  EXPECT_FLOAT_EQ(out.at(1, 1, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(2, 2, 0), 4.0f);
}

TEST(CropFromRegion, FailsWhenRequiredDataMissing) {
  nn::Tensor have(nn::TensorShape{2, 2, 1});
  // `have` covers rows 0..2 only; asking for row 3 (valid in an 8-row map)
  // must fail loudly rather than fabricate data.
  EXPECT_THROW(crop_from_region(have, Region{{0, 2}, {0, 2}},
                                Region{{1, 4}, {0, 2}}, {8, 8, 1}),
               std::logic_error);
}

}  // namespace
}  // namespace qmcu::patch

// ---------------------------------------------------------------------------
// Zoo-wide property sweep: patch-based inference must be bit-exact for every
// architecture in the model zoo, including the pooling-heavy (VGG16,
// SqueezeNet) and branched (InceptionV3) topologies whose stages exercise
// region pooling and concat propagation.
namespace qmcu::patch {
namespace {

class ZooWidePatchEquivalence : public ::testing::TestWithParam<std::string> {
};

TEST_P(ZooWidePatchEquivalence, BitExactAcrossTheZoo) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  const nn::Graph g = models::make_model(GetParam(), cfg);
  const PatchSpec spec = plan_mcunetv2(g, {2, 4});
  const CompiledPatchModel model(g, build_patch_plan(g, spec));
  const nn::Executor exec(g);
  nn::Tensor in(g.shape(0));
  nn::Rng rng(21);
  for (float& v : in.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  SCOPED_TRACE(GetParam());
  expect_identical(model.run(in), exec.run(in));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooWidePatchEquivalence,
                         ::testing::Values("mobilenetv2", "mcunet", "mnasnet",
                                           "fbnet_a", "ofa_cpu", "resnet18",
                                           "vgg16", "squeezenet",
                                           "inceptionv3"));

}  // namespace
}  // namespace qmcu::patch
