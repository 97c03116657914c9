// Integration tests for the end-to-end QuantMCU pipeline (core/quantmcu.h):
// plan building, VDQS search wiring, VDPC ablation, and the headline
// orderings the paper reports.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/quantmcu.h"
#include "data/synthetic.h"
#include "mcu/bitops.h"
#include "models/zoo.h"
#include "nn/memory_planner.h"

namespace qmcu::core {
namespace {

struct Fixture {
  nn::Graph g;
  mcu::Device dev = mcu::arduino_nano_33_ble_sense();
  mcu::CostModel cm{dev};
  std::vector<nn::Tensor> calib;
  std::vector<nn::Tensor> eval;

  Fixture() : g(make_graph()) {
    data::DataConfig dc;
    dc.resolution = 48;
    dc.outlier_probability = 0.02;
    const data::SyntheticDataset ds(dc);
    calib = ds.batch(0, 2);
    eval = ds.batch(10, 3);
  }

  static nn::Graph make_graph() {
    models::ModelConfig cfg;
    cfg.width_multiplier = 0.25f;
    cfg.resolution = 48;
    cfg.num_classes = 10;
    return models::make_mobilenet_v2(cfg);
  }

  QuantMcuConfig config() const {
    QuantMcuConfig cfg;
    cfg.patch.grid = 3;
    return cfg;
  }
};

TEST(QuantMcuPlan, SearchesEveryBranch) {
  Fixture f;
  const QuantMcuPlan plan =
      build_quantmcu_plan(f.g, f.dev, f.calib, f.config());
  EXPECT_EQ(plan.mixed_bits.size(), plan.patch_plan.branches.size());
  // one search per branch plus the shared tail branch
  EXPECT_EQ(plan.searches.size(), plan.patch_plan.branches.size() + 1);
  for (std::size_t b = 0; b < plan.mixed_bits.size(); ++b) {
    EXPECT_EQ(plan.mixed_bits[b].bits.size(),
              plan.patch_plan.branches[b].steps.size());
    for (int bits : plan.mixed_bits[b].bits) {
      EXPECT_TRUE(bits == 8 || bits == 4 || bits == 2);
    }
  }
  EXPECT_GT(plan.search_seconds, 0.0);
  EXPECT_GT(plan.last_output_entropy, 0.0);
  EXPECT_EQ(plan.full_precision_bitops, mcu::full_precision_bitops(f.g));
}

TEST(QuantMcuPlan, SearchAssignsSomeSubByte) {
  // The whole point: the searched config must actually use sub-byte maps.
  Fixture f;
  const QuantMcuPlan plan =
      build_quantmcu_plan(f.g, f.dev, f.calib, f.config());
  int subbyte = 0;
  for (const auto& bb : plan.mixed_bits) {
    for (int bits : bb.bits) subbyte += bits < 8 ? 1 : 0;
  }
  EXPECT_GT(subbyte, 0);
}

TEST(QuantMcuEvaluate, ReducesBitopsVsUniformPatch) {
  Fixture f;
  const QuantMcuConfig cfg = f.config();
  const QuantMcuPlan plan = build_quantmcu_plan(f.g, f.dev, f.calib, cfg);
  const QuantMcuEvaluation q =
      evaluate_quantmcu(f.g, plan, f.cm, f.eval, cfg);
  const QuantMcuEvaluation u =
      evaluate_uniform_patch(f.g, plan.patch_plan, f.cm, f.eval);
  EXPECT_LT(q.mean_bitops, u.mean_bitops);
  EXPECT_LT(q.mean_latency_ms, u.mean_latency_ms);
  EXPECT_LT(q.mean_peak_bytes, u.mean_peak_bytes);
}

TEST(QuantMcuEvaluate, BeatsLayerBasedBitops) {
  // Table I headline: QuantMCU BitOPs drop below even layer-based int8.
  Fixture f;
  const QuantMcuConfig cfg = f.config();
  const QuantMcuPlan plan = build_quantmcu_plan(f.g, f.dev, f.calib, cfg);
  const QuantMcuEvaluation q =
      evaluate_quantmcu(f.g, plan, f.cm, f.eval, cfg);
  const double layer_bitops = static_cast<double>(f.g.total_macs()) * 64.0;
  EXPECT_LT(q.mean_bitops, layer_bitops);
}

TEST(QuantMcuEvaluate, VdpcAblationShowsAccuracyCliff) {
  // Fig. 4: disabling VDPC must cost double-digit percentage points while
  // the guarded pipeline stays within ~1.5pp.
  Fixture f;
  QuantMcuConfig with_vdpc = f.config();
  const QuantMcuPlan plan =
      build_quantmcu_plan(f.g, f.dev, f.calib, with_vdpc);
  QuantMcuConfig without = with_vdpc;
  without.enable_vdpc = false;
  const QuantMcuEvaluation guarded =
      evaluate_quantmcu(f.g, plan, f.cm, f.eval, with_vdpc);
  const QuantMcuEvaluation blind =
      evaluate_quantmcu(f.g, plan, f.cm, f.eval, without);
  EXPECT_LT(guarded.top1_penalty_pp, 2.5);
  EXPECT_GT(blind.top1_penalty_pp, guarded.top1_penalty_pp + 3.0);
  EXPECT_GT(blind.noise.crushed_outlier_fraction, 0.5);
  EXPECT_LT(guarded.noise.crushed_outlier_fraction, 0.05);
}

TEST(QuantMcuEvaluate, VdpcCostsComputeButSavesAccuracy) {
  // Outlier-class branches run at 8-bit: with VDPC enabled the expected
  // BitOPs can only go up relative to the blind configuration.
  Fixture f;
  const QuantMcuConfig cfg = f.config();
  const QuantMcuPlan plan = build_quantmcu_plan(f.g, f.dev, f.calib, cfg);
  QuantMcuConfig blind_cfg = cfg;
  blind_cfg.enable_vdpc = false;
  const auto guarded = evaluate_quantmcu(f.g, plan, f.cm, f.eval, cfg);
  const auto blind = evaluate_quantmcu(f.g, plan, f.cm, f.eval, blind_cfg);
  EXPECT_GE(guarded.mean_bitops, blind.mean_bitops);
}

TEST(QuantMcuEvaluate, OutlierFractionTracksPhi) {
  Fixture f;
  QuantMcuConfig strict = f.config();   // phi = 0.96
  QuantMcuConfig lax = f.config();
  lax.vdpc.phi = 0.9999;
  const QuantMcuPlan plan = build_quantmcu_plan(f.g, f.dev, f.calib, strict);
  const auto a = evaluate_quantmcu(f.g, plan, f.cm, f.eval, strict);
  const auto b = evaluate_quantmcu(f.g, plan, f.cm, f.eval, lax);
  EXPECT_GE(a.outlier_patch_fraction, b.outlier_patch_fraction);
}

TEST(QuantMcuEvaluate, LambdaSweepTradesComputeForAccuracy) {
  // Table III shape: higher lambda -> more BitOPs, less penalty.
  Fixture f;
  QuantMcuConfig lo = f.config();
  lo.lambda = 0.1;
  QuantMcuConfig hi = f.config();
  hi.lambda = 0.9;
  const QuantMcuPlan plan_lo = build_quantmcu_plan(f.g, f.dev, f.calib, lo);
  const QuantMcuPlan plan_hi = build_quantmcu_plan(f.g, f.dev, f.calib, hi);
  const auto e_lo = evaluate_quantmcu(f.g, plan_lo, f.cm, f.eval, lo);
  const auto e_hi = evaluate_quantmcu(f.g, plan_hi, f.cm, f.eval, hi);
  EXPECT_LE(e_lo.mean_bitops, e_hi.mean_bitops);
  EXPECT_GE(e_lo.top1_penalty_pp, e_hi.top1_penalty_pp);
}

TEST(QuantMcuPlan, SearchIsFast) {
  // Table II: VDQS finishes in a fraction of the baselines' time. At this
  // test scale it must be well under a second.
  Fixture f;
  const QuantMcuPlan plan =
      build_quantmcu_plan(f.g, f.dev, f.calib, f.config());
  EXPECT_LT(plan.search_seconds, 5.0);
}

TEST(QuantMcuPlan, RejectsEmptyCalibration) {
  Fixture f;
  EXPECT_THROW(
      build_quantmcu_plan(f.g, f.dev, {}, f.config()),
      std::invalid_argument);
}

// build_quantmcu_plan takes the calibration batch on its own, so it checks
// it like calibrate_ranges: a NaN or an infinity is named by image index
// before any forward pass (an infinite map used to give entropy 0).
TEST(QuantMcu, RejectsNonFiniteCalibration) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    Fixture f;
    f.calib[1].at(7, 2, 0) = bad;
    try {
      (void)build_quantmcu_plan(f.g, f.dev, f.calib, f.config());
      ADD_FAILURE() << "build_quantmcu_plan accepted an image holding "
                    << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("calibration image 1"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace qmcu::core
