// Tests for the patch-method planners: MCUNetV2 split selection, Cipolletta
// restructuring search, RNNPool stem replacement.
#include <gtest/gtest.h>

#include "models/weights.h"
#include "models/zoo.h"
#include "nn/compiled_model.h"
#include "nn/memory_planner.h"
#include "nn/rng.h"
#include "patch/mcunetv2.h"
#include "patch/patch_cost.h"
#include "patch/restructuring.h"
#include "patch/rnnpool.h"

namespace qmcu::patch {
namespace {

nn::Graph test_model() {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 64;
  cfg.num_classes = 10;
  cfg.init_weights = false;
  return models::make_mobilenet_v2(cfg);
}

TEST(McuNetV2Planner, SplitsAtRoughlyQuarterResolution) {
  const nn::Graph g = test_model();
  const PatchSpec spec = plan_mcunetv2(g, {3, 4});
  ASSERT_GE(spec.split_layer, 0);
  EXPECT_LE(g.shape(spec.split_layer).h, 64 / 4);
  EXPECT_EQ(spec.grid_rows, 3);
}

TEST(McuNetV2Planner, DeeperDownsampleTargetSplitsDeeper) {
  const nn::Graph g = test_model();
  const PatchSpec s4 = plan_mcunetv2(g, {2, 4});
  const PatchSpec s8 = plan_mcunetv2(g, {2, 8});
  EXPECT_GT(s8.split_layer, s4.split_layer);
}

TEST(McuNetV2Planner, ProducesValidPlan) {
  const nn::Graph g = test_model();
  const PatchSpec spec = plan_mcunetv2(g, {3, 4});
  EXPECT_NO_THROW(build_patch_plan(g, spec));
}

TEST(Restructuring, BeatsDefaultPlanOnPeakMemory) {
  const nn::Graph g = test_model();
  const mcu::CostModel cm(mcu::arduino_nano_33_ble_sense());
  const RestructuringResult best = restructure_for_memory(g, cm);
  // Against the MCUNetV2 default:
  const PatchPlan def = build_patch_plan(g, plan_mcunetv2(g, {3, 4}));
  const PatchCost def_cost = evaluate_patch_cost(
      g, def, uniform_branch_bits(def, 8), nn::uniform_bits(g, 8), cm);
  EXPECT_LE(best.cost.peak_bytes, def_cost.peak_bytes);
  EXPECT_GT(best.candidates_tried, 1);
}

TEST(Restructuring, TradesComputeForMemory) {
  // The paper's Table I: Cipolletta has the lowest peak but the highest
  // BitOPs of the patch methods. At minimum, its redundancy must be real.
  const nn::Graph g = test_model();
  const mcu::CostModel cm(mcu::arduino_nano_33_ble_sense());
  const RestructuringResult best = restructure_for_memory(g, cm);
  const std::int64_t layer_bitops = g.total_macs() * 64;
  EXPECT_GT(best.cost.bitops, layer_bitops);
}

TEST(Restructuring, RespectsCandidateGrids) {
  const nn::Graph g = test_model();
  const mcu::CostModel cm(mcu::arduino_nano_33_ble_sense());
  const std::array<int, 1> only2{2};
  const RestructuringResult best = restructure_for_memory(g, cm, only2);
  EXPECT_EQ(best.spec.grid_rows, 2);
  EXPECT_EQ(best.spec.grid_cols, 2);
}

TEST(RnnPool, ReplacementPreservesInterfaceShapes) {
  const nn::Graph g = test_model();
  const RnnPoolResult r = make_rnnpool_variant(g);
  EXPECT_EQ(r.graph.shape(0), g.shape(0));  // same input
  EXPECT_EQ(r.graph.shape(r.graph.output()), g.shape(g.output()));
}

TEST(RnnPool, BlockMacsRoughlyMatchReplacedStage) {
  const nn::Graph g = test_model();
  const RnnPoolResult r = make_rnnpool_variant(g);
  EXPECT_GT(r.original_stage_macs, 0);
  const double ratio = static_cast<double>(r.block_macs) /
                       static_cast<double>(r.original_stage_macs);
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 1.6);
}

TEST(RnnPool, VariantExecutesAfterWeightInit) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  const nn::Graph g = models::make_mobilenet_v2(cfg);  // with weights
  RnnPoolResult r = make_rnnpool_variant(g);
  models::init_parameters(r.graph, 5);  // fills only the new stem
  const nn::CompiledModel exec(r.graph);
  nn::Tensor in(r.graph.shape(0));
  nn::Rng rng(3);
  for (float& v : in.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  const nn::Tensor out = exec.run(in);
  float sum = 0.0f;
  for (float v : out.data()) sum += v;
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST(RnnPool, TailWeightsAreCopiedVerbatim) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  const nn::Graph g = models::make_mobilenet_v2(cfg);
  const RnnPoolResult r = make_rnnpool_variant(g);
  // The classifier FC is the 2nd-to-last layer in both graphs (softmax
  // last); its weights must be identical.
  const int orig_fc = g.output() - 1;
  const int new_fc = r.graph.output() - 1;
  ASSERT_EQ(g.layer(orig_fc).kind, nn::OpKind::FullyConnected);
  ASSERT_EQ(r.graph.layer(new_fc).kind, nn::OpKind::FullyConnected);
  const auto a = g.weights(orig_fc);
  const auto b = r.graph.weights(new_fc);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_FLOAT_EQ(a[i], b[i]);
}

TEST(RnnPool, EliminatesLargeEarlyFeatureMaps) {
  const nn::Graph g = test_model();
  const RnnPoolResult r = make_rnnpool_variant(g);
  const auto orig = nn::plan_layer_based(g, nn::uniform_bits(g, 8));
  const auto pooled =
      nn::plan_layer_based(r.graph, nn::uniform_bits(r.graph, 8));
  EXPECT_LT(pooled.peak_bytes, orig.peak_bytes);
}

}  // namespace
}  // namespace qmcu::patch
