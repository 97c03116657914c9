// The quantized deployment path (patch::CompiledPatchQuantModel):
// patch-based integer inference must be bit-identical to layer-based
// integer inference in uniform mode (paper Fig. 1a — halos exist precisely
// so that no receptive field is truncated), the mixed-precision mode (the
// VDQS assignment actually executing) must track the float reference
// within quantization noise, and mixed packed branch maps must equal the
// per-step oracle of patch_oracle.h on every zoo model.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/quantmcu.h"
#include "data/synthetic.h"
#include "models/weights.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "nn/memory_planner.h"
#include "nn/rng.h"
#include "nn/runtime/worker_pool.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "patch/region_crop.h"
#include "patch_oracle.h"
#include "quant/calibration.h"
#include "quant/fake_quant.h"
#include "scoped_env.h"

namespace qmcu::patch {
namespace {

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

// Stage with a *non-activated* conv before a padded max pool: the padding
// exclusion semantics matter here (negative values reach the pool window).
nn::Graph pooled_net() {
  nn::Graph g("pooled");
  const int in = g.add_input(nn::TensorShape{19, 19, 3});
  const int a = g.add_conv2d(in, 8, 3, 1, 1, nn::Activation::None);
  const int p = g.add_max_pool(a, 3, 2, 1);
  const int b = g.add_conv2d(p, 8, 3, 1, 1, nn::Activation::ReLU);
  const int q = g.add_avg_pool(b, 3, 2, 1);
  const int c = g.add_conv2d(q, 16, 1, 1, 0, nn::Activation::ReLU);
  g.add_global_avg_pool(c);
  g.add_fully_connected(g.size() - 1, 10, nn::Activation::None);
  models::init_parameters(g, 77);
  return g;
}

// Odd input extent (17x17) through a strided stem, a residual add and a
// strided depthwise: tiles of uneven size and halos clipped at both map
// borders.
nn::Graph stage_net() {
  nn::Graph g("stage");
  const int in = g.add_input(nn::TensorShape{17, 17, 3});
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

nn::Graph mbv2_net() {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  return models::make_mobilenet_v2(cfg);
}

void expect_q_identical(const nn::QTensor& a, const nn::QTensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(a.params(), b.params());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(static_cast<int>(a.data()[i]), static_cast<int>(b.data()[i]))
        << "element " << i;
  }
}

struct QuantEquivCase {
  nn::Graph (*net)();
  int split;
  int grid;
};

class QuantPatchEquivalence
    : public ::testing::TestWithParam<QuantEquivCase> {};

TEST_P(QuantPatchEquivalence, UniformInt8MatchesLayerBasedExactly) {
  const auto [net, split, grid] = GetParam();
  const nn::Graph g = net();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 1),
                                      random_input(g.shape(0), 2)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));

  PatchSpec spec;
  spec.split_layer = split;
  spec.grid_rows = spec.grid_cols = grid;
  const CompiledPatchQuantModel pexec(g, build_patch_plan(g, spec), cfg);
  const nn::QuantExecutor qexec(g, cfg);

  const nn::Tensor in = random_input(g.shape(0), 3);
  expect_q_identical(pexec.run(in), qexec.run(in));
}

INSTANTIATE_TEST_SUITE_P(SplitsAndGrids, QuantPatchEquivalence,
                         ::testing::Values(QuantEquivCase{pooled_net, 1, 2},
                                           QuantEquivCase{pooled_net, 2, 2},
                                           QuantEquivCase{pooled_net, 2, 3},
                                           QuantEquivCase{pooled_net, 4, 2},
                                           QuantEquivCase{pooled_net, 5, 3}));

INSTANTIATE_TEST_SUITE_P(OddExtentSplitsAndGrids, QuantPatchEquivalence,
                         ::testing::Values(QuantEquivCase{stage_net, 1, 2},
                                           QuantEquivCase{stage_net, 1, 3},
                                           QuantEquivCase{stage_net, 3, 2},
                                           QuantEquivCase{stage_net, 3, 3},
                                           QuantEquivCase{stage_net, 4, 2},
                                           QuantEquivCase{stage_net, 4, 4},
                                           QuantEquivCase{stage_net, 5, 3}));

TEST(QuantPatchEquivalence, MobileNetV2UniformInt8Exact) {
  const nn::Graph g = mbv2_net();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 4)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const PatchSpec spec = plan_mcunetv2(g, {2, 4});
  const CompiledPatchQuantModel pexec(g, build_patch_plan(g, spec), cfg);
  const nn::QuantExecutor qexec(g, cfg);
  const nn::Tensor in = random_input(g.shape(0), 5);
  expect_q_identical(pexec.run(in), qexec.run(in));
}

// The oracle itself: its reassembled cut map is the layer-based one.
TEST(PatchOracle, AssembledStageMatchesLayerBasedInt8) {
  const nn::Graph g = pooled_net();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 6)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  PatchSpec spec;
  spec.split_layer = 4;
  spec.grid_rows = spec.grid_cols = 3;
  const CompiledPatchQuantModel model(g, build_patch_plan(g, spec), cfg);
  const nn::QuantExecutor qexec(g, cfg);
  const nn::Tensor in = random_input(g.shape(0), 7);
  const auto memo = qexec.run_all(in);
  expect_q_identical(test::PatchOracle(model).run_stage(in), memo[4]);
}

TEST(PatchQuantModel, MixedPrecisionFromQuantMcuPlanRuns) {
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

  const CompiledPatchQuantModel pexec(g, plan.patch_plan, deploy_cfg,
                                      branch_cfgs);
  const nn::Executor ref(g);
  const nn::Tensor in = ds.image(11);
  const nn::QTensor out = pexec.run(in);
  const nn::Tensor deq = nn::dequantize(out);
  const nn::Tensor ref_out = ref.run(in);
  // Mixed-precision output must stay a valid distribution near the float
  // reference (sub-byte noise allowed, NaNs and garbage are not).
  float sum = 0.0f;
  for (float v : deq.data()) {
    EXPECT_GE(v, -0.01f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 0.2f);
  EXPECT_LT(quant::output_mse(deq, ref_out), 0.05);
}

TEST(PatchQuantModel, MixedPrecisionNoisierThanUniformInt8) {
  const nn::Graph g = mbv2_net();
  data::DataConfig dc;
  dc.resolution = 48;
  const data::SyntheticDataset ds(dc);
  const std::vector<nn::Tensor> calib = ds.batch(0, 2);
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg8 =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));

  core::QuantMcuConfig qcfg;
  qcfg.patch.grid = 2;
  qcfg.patch.stage_downsample = 4;
  const core::QuantMcuPlan plan = core::build_quantmcu_plan(
      g, mcu::arduino_nano_33_ble_sense(), calib, qcfg);
  const auto branch_cfgs = core::make_branch_quant_configs(g, plan, ranges);
  const auto deploy_cfg = core::make_deployment_quant_config(g, plan, ranges);

  const CompiledPatchQuantModel uniform(g, plan.patch_plan, cfg8);
  const CompiledPatchQuantModel mixed(g, plan.patch_plan, deploy_cfg,
                                      branch_cfgs);
  const nn::Executor ref(g);

  double err_uniform = 0.0;
  double err_mixed = 0.0;
  for (int i = 10; i < 13; ++i) {
    const nn::Tensor in = ds.image(i);
    const nn::Tensor ref_out = ref.run(in);
    err_uniform +=
        quant::output_mse(nn::dequantize(uniform.run(in)), ref_out);
    err_mixed += quant::output_mse(nn::dequantize(mixed.run(in)), ref_out);
  }
  EXPECT_LE(err_uniform, err_mixed + 1e-9);
}

TEST(PatchQuantModel, ValidatesBranchConfigShapes) {
  const nn::Graph g = pooled_net();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 8)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  PatchSpec spec;
  spec.split_layer = 2;
  spec.grid_rows = spec.grid_cols = 2;
  const PatchPlan plan = build_patch_plan(g, spec);
  std::vector<BranchQuantConfig> bad(plan.branches.size() - 1);
  EXPECT_THROW(CompiledPatchQuantModel(g, plan, cfg, bad),
               std::invalid_argument);
}

TEST(CropFromRegionQ, FillsPaddingWithZeroPoint) {
  const nn::QuantParams p = nn::choose_quant_params(-1.0f, 3.0f, 8);
  nn::QTensor have(nn::TensorShape{2, 2, 1}, p);
  have.at(0, 0, 0) = 5;
  const nn::QTensor out = test::crop_q(
      have, Region{{0, 2}, {0, 2}}, Region{{-1, 2}, {-1, 2}}, {2, 2, 1});
  EXPECT_EQ(out.at(0, 0, 0), static_cast<std::int8_t>(p.zero_point));
  EXPECT_EQ(out.at(1, 1, 0), 5);
}

TEST(CropFromRegionQ, FailsWhenRequiredDataMissing) {
  const nn::QuantParams p = nn::choose_quant_params(-1.0f, 3.0f, 8);
  nn::QTensor have(nn::TensorShape{2, 2, 1}, p);
  // `have` covers rows 0..2 only; asking for row 3 (valid in an 8-row map)
  // must fail loudly rather than fabricate data.
  EXPECT_THROW(test::crop_q(have, Region{{0, 2}, {0, 2}},
                            Region{{1, 4}, {0, 2}}, {8, 8, 1}),
               std::logic_error);
}

// --- crop edge matrix -------------------------------------------------------
//
// The row-wise crops of both domains against a naive per-element reference:
// out-of-map positions take the pad value, in-map positions come from
// `have`, and an in-map position outside `avail` makes the crop throw.
// Covers each border, the four corners, rows wholly outside the map,
// x-spans wholly outside it, and want == avail, for a full-map and a
// partial `avail`.

template <class T, class Elem>
std::optional<std::vector<Elem>> naive_crop(const T& have, const Region& avail,
                                            const Region& want,
                                            const nn::TensorShape& full,
                                            Elem pad) {
  const int c = have.shape().c;
  std::vector<Elem> out;
  for (int gy = want.y.begin; gy < want.y.end; ++gy) {
    for (int gx = want.x.begin; gx < want.x.end; ++gx) {
      for (int ch = 0; ch < c; ++ch) {
        if (gy < 0 || gy >= full.h || gx < 0 || gx >= full.w) {
          out.push_back(pad);
        } else if (gy < avail.y.begin || gy >= avail.y.end ||
                   gx < avail.x.begin || gx >= avail.x.end) {
          return std::nullopt;  // the crop must throw
        } else {
          out.push_back(have.at(gy - avail.y.begin, gx - avail.x.begin, ch));
        }
      }
    }
  }
  return out;
}

std::vector<Region> edge_windows(const nn::TensorShape& f,
                                 const Region& avail) {
  return {
      avail,                                  // want == avail
      {{-1, 3}, {0, f.w}},                    // top border
      {{f.h - 2, f.h + 1}, {0, f.w}},         // bottom border
      {{0, f.h}, {-2, 3}},                    // left border
      {{0, f.h}, {f.w - 2, f.w + 2}},         // right border
      {{-1, 2}, {-1, 2}},                     // top-left corner
      {{-1, 2}, {f.w - 2, f.w + 1}},          // top-right corner
      {{f.h - 2, f.h + 1}, {-1, 2}},          // bottom-left corner
      {{f.h - 2, f.h + 1}, {f.w - 2, f.w + 1}},  // bottom-right corner
      {{-3, -1}, {0, f.w}},                   // rows wholly above
      {{f.h, f.h + 2}, {1, 4}},               // rows wholly below
      {{1, 3}, {-3, -1}},                     // x-span wholly left
      {{1, 3}, {f.w, f.w + 2}},               // x-span wholly right
      {{-2, f.h + 2}, {-2, f.w + 2}},         // the map plus a halo
      {{avail.y.begin + 1, avail.y.end}, avail.x},  // rows inside avail
      {avail.y, {avail.x.begin - 1, avail.x.end}},  // one column left of it
  };
}

TEST(CropEdgeMatrix, BothDomainsMatchNaiveReference) {
  const nn::TensorShape full{6, 7, 3};
  const nn::QuantParams p{0.1f, -7, 8};
  for (const Region& avail :
       {full_region(full), Region{{1, 5}, {2, 6}}}) {
    const nn::TensorShape hs{avail.y.size(), avail.x.size(), full.c};
    nn::Tensor fhave(hs);
    nn::QTensor qhave(hs, p);
    for (std::size_t i = 0; i < fhave.data().size(); ++i) {
      fhave.data()[i] = 1.0f + static_cast<float>(i);
      qhave.data()[i] = static_cast<std::int8_t>(10 + i % 100);
    }
    for (const Region& want : edge_windows(full, avail)) {
      const nn::TensorShape ws{want.y.size(), want.x.size(), full.c};
      const auto fwant = naive_crop(fhave, avail, want, full, 0.0f);
      const auto qwant = naive_crop(qhave, avail, want, full,
                                    static_cast<std::int8_t>(p.zero_point));
      // Scratch destinations start dirty: padding must be written, not
      // assumed.
      nn::Tensor fout(ws);
      nn::QTensor qout(ws, p);
      std::fill(fout.data().begin(), fout.data().end(), -99.0f);
      std::fill(qout.data().begin(), qout.data().end(), std::int8_t{-99});
      if (!fwant) {
        EXPECT_THROW(crop_from_region_into(fhave, avail, want, full, fout),
                     std::logic_error);
        EXPECT_THROW(crop_from_region_q_into(qhave, avail, want, full, qout),
                     std::logic_error);
        continue;
      }
      crop_from_region_into(fhave, avail, want, full, fout);
      crop_from_region_q_into(qhave, avail, want, full, qout);
      ASSERT_EQ(fout.data().size(), fwant->size());
      for (std::size_t i = 0; i < fwant->size(); ++i) {
        ASSERT_EQ(fout.data()[i], (*fwant)[i]) << "float element " << i;
        ASSERT_EQ(qout.data()[i], (*qwant)[i]) << "quant element " << i;
      }
    }
  }
}

}  // namespace
}  // namespace qmcu::patch

// ---------------------------------------------------------------------------
// Zoo-wide property sweep: uniform-int8 patch inference must be bit-exact
// for every architecture in the model zoo, including the pooling-heavy
// (VGG16, SqueezeNet) and branched (InceptionV3) topologies whose stages
// exercise region pooling and concat propagation.
namespace qmcu::patch {
namespace {

class ZooWideQuantEquivalence : public ::testing::TestWithParam<std::string> {
};

TEST_P(ZooWideQuantEquivalence, UniformInt8BitExact) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  const nn::Graph g = models::make_model(GetParam(), cfg);
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 31)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto qcfg =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const PatchSpec spec = plan_mcunetv2(g, {2, 4});
  const CompiledPatchQuantModel pexec(g, build_patch_plan(g, spec), qcfg);
  const nn::QuantExecutor qexec(g, qcfg);
  const nn::Tensor in = random_input(g.shape(0), 32);
  expect_q_identical(pexec.run(in), qexec.run(in));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooWideQuantEquivalence,
                         ::testing::ValuesIn(models::model_names()));

// Mixed 2/4/8-bit branch steps on every zoo architecture, so sub-byte
// branch maps are stored packed under every stage op the zoo has (strided
// and pointwise convs, depthwise, pools, residual adds, concats). The
// engine on each kernel table, under run, the pipelined run and
// run_streaming, must equal the Reference oracle.
class ZooWideMixedEquivalence : public ::testing::TestWithParam<std::string> {
};

TEST_P(ZooWideMixedEquivalence, PackedBranchMapsMatchReferenceOracle) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  const nn::Graph g = models::make_model(GetParam(), cfg);
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 41)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto qcfg =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const PatchPlan plan = build_patch_plan(g, plan_mcunetv2(g, {2, 4}));
  const std::vector<int> widths{2, 4, 8};
  const auto branch_cfgs = test::random_branch_cfgs(plan, ranges, widths, 43);
  const nn::Tensor in = random_input(g.shape(0), 44);
  const CompiledPatchQuantModel ref(g, plan, qcfg, branch_cfgs,
                                    nn::ops::KernelTier::Reference);
  const nn::QTensor want = test::PatchOracle(ref).run(in);

  // Each engine is built, and its pool lanes run, under its pin.
  struct Table {
    nn::ops::KernelTier tier;
    const char* force;  // a QMCU_FORCE_* variable, or null
  };
  for (const Table t : {Table{nn::ops::KernelTier::Reference, nullptr},
                        Table{nn::ops::KernelTier::Simd, nullptr},
                        Table{nn::ops::KernelTier::Simd, "QMCU_FORCE_SCALAR"},
                        Table{nn::ops::KernelTier::Simd, "QMCU_FORCE_NO_DOT"}}) {
    SCOPED_TRACE(t.force != nullptr ? t.force
                 : t.tier == nn::ops::KernelTier::Reference ? "Reference"
                                                            : "Simd");
    std::optional<test::ScopedEnv> pin;
    if (t.force != nullptr) pin.emplace(t.force, "1");
    const CompiledPatchQuantModel model(g, plan, qcfg, branch_cfgs, t.tier);
    nn::WorkerPool pool(3);
    StreamState stream;
    expect_q_identical(model.run(in), want);
    expect_q_identical(model.run(in, &pool), want);
    expect_q_identical(model.run_streaming(in, &pool, stream), want);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooWideMixedEquivalence,
                         ::testing::ValuesIn(models::model_names()));

}  // namespace
}  // namespace qmcu::patch
