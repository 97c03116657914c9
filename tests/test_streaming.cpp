// The streaming runtime's exactness contract: in exact mode (default
// StreamingConfig), a StreamingSession fed any frame sequence produces
// bit-identical outputs to running the model in full on every frame — for
// every worker count, every quant mode (int8, 4-bit, mixed per-branch)
// and every kernel tier (the force-scalar/no-dot CI legs re-run
// this binary). On top of that: skip accounting must prove reuse actually
// happened, tolerance mode must skip more than exact mode, the activation
// stats tracker must flag synthetic distribution drift, and StreamState
// reset/rebind must recover cleanly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/quantmcu.h"
#include "data/synthetic.h"
#include "mcu/device.h"
#include "models/zoo.h"
#include "nn/rng.h"
#include "nn/runtime/worker_pool.h"
#include "nn/streaming/activation_stats.h"
#include "nn/streaming/streaming_session.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "patch/streaming_diff.h"
#include "quant/calibration.h"

namespace qmcu {
namespace {

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

models::ModelConfig small_cfg() {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  return cfg;
}

void expect_q_identical(const nn::QTensor& a, const nn::QTensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(a.params(), b.params());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(static_cast<int>(a.data()[i]), static_cast<int>(b.data()[i]))
        << "element " << i;
  }
}

// Uniform int8, calibrated on one random input.
nn::ActivationQuantConfig int8_config(const nn::Graph& g) {
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 5)});
  return quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
}

// A synthetic stream: frame 0 is random; each later frame copies its
// predecessor and moves a small square of fresh values — the temporal
// locality streaming exploits. Frame `hold` repeats frame hold-1 exactly
// (a static scene).
std::vector<nn::Tensor> make_stream(nn::TensorShape s, int frames,
                                    std::uint64_t seed) {
  std::vector<nn::Tensor> stream;
  stream.push_back(random_input(s, seed));
  nn::Rng rng(seed + 1);
  const int side = std::max(2, s.h / 4);
  for (int f = 1; f < frames; ++f) {
    nn::Tensor next = stream.back();
    if (f == 2) {  // one exactly-static frame mid-stream
      stream.push_back(std::move(next));
      continue;
    }
    const int y0 = static_cast<int>(rng.uniform(0, s.h - side));
    const int x0 = static_cast<int>(rng.uniform(0, s.w - side));
    for (int y = y0; y < y0 + side; ++y) {
      for (int x = x0; x < x0 + side; ++x) {
        for (int c = 0; c < s.c; ++c) {
          next.at(y, x, c) = static_cast<float>(rng.normal(0.0, 1.0));
        }
      }
    }
    stream.push_back(std::move(next));
  }
  return stream;
}

// --- exact mode is bit-identical: int8 and 4-bit, every worker count -------

TEST(Streaming, QuantBitExactAcrossBitwidthsAndWorkerCounts) {
  for (const char* name : {"mobilenetv2", "mcunet", "mnasnet"}) {
    const nn::Graph g = models::make_model(name, small_cfg());
    const auto ranges = quant::calibrate_ranges(
        g, std::vector<nn::Tensor>{random_input(g.shape(0), 5)});
    const patch::PatchPlan plan =
        patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
    const std::vector<nn::Tensor> stream = make_stream(g.shape(0), 6, 41);
    for (const int bits : {8, 4}) {
      const auto cfg =
          quant::make_quant_config(g, ranges, nn::uniform_bits(g, bits));
      const patch::CompiledPatchQuantModel model(g, plan, cfg);
      for (const int workers : {1, 2, 4}) {
        SCOPED_TRACE(std::string(name) + ", " + std::to_string(bits) +
                     " bits, " + std::to_string(workers) + " workers");
        nn::WorkerPool pool(workers);
        nn::WorkerPool* p = workers == 1 ? nullptr : &pool;
        nn::streaming::StreamingSession<patch::CompiledPatchQuantModel>
            session;
        for (const nn::Tensor& frame : stream) {
          expect_q_identical(session.next(model, frame, p), model.run(frame));
        }
        // The moving-square stream must actually have skipped work.
        const nn::streaming::StreamingStats& st = session.stats();
        EXPECT_EQ(st.frames, 6);
        EXPECT_EQ(st.unchanged_frames, 1);
        EXPECT_GT(st.branches_skipped, 0);
      }
    }
  }
}

TEST(Streaming, MixedModeBitExact) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
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
  const std::vector<nn::Tensor> stream =
      make_stream(g.shape(0), 5, 42);
  for (const int workers : {1, 2, 4}) {
    nn::WorkerPool pool(workers);
    nn::WorkerPool* p = workers == 1 ? nullptr : &pool;
    nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> session;
    for (const nn::Tensor& frame : stream) {
      expect_q_identical(session.next(model, frame, p), model.run(frame));
    }
  }
}

// --- skip accounting --------------------------------------------------------

TEST(Streaming, UnchangedFrameSkipsEverything) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, int8_config(g));
  const nn::Tensor frame = random_input(g.shape(0), 50);

  nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> session;
  expect_q_identical(session.next(model, frame), model.run(frame));
  // Frame 1 primes: everything ran.
  EXPECT_EQ(session.stats().branches_skipped, 0);
  EXPECT_EQ(session.stats().branches_recomputed,
            static_cast<std::int64_t>(plan.branches.size()));

  // Same frame again: the diff short-circuits before touching the model.
  expect_q_identical(session.next(model, frame), model.run(frame));
  const nn::streaming::StreamingStats& st = session.stats();
  EXPECT_EQ(st.frames, 2);
  EXPECT_EQ(st.unchanged_frames, 1);
  EXPECT_EQ(st.branches_recomputed,
            static_cast<std::int64_t>(plan.branches.size()));
  EXPECT_EQ(st.tail_rest_runs, 1);
  EXPECT_GT(st.branch_skip_ratio(), 0.0);
}

TEST(Streaming, LocalChangeSkipsFarBranchesAndBands) {
  // A 4x4 grid localises a corner change to a few branches; bands of
  // untouched upstream rows must not rerun either.
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {4, 4}));
  const patch::CompiledPatchQuantModel model(g, plan, int8_config(g));
  const nn::Tensor f0 = random_input(g.shape(0), 51);
  nn::Tensor f1 = f0;
  f1.at(0, 0, 0) += 1.0f;  // one corner pixel

  nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> session;
  expect_q_identical(session.next(model, f0), model.run(f0));
  expect_q_identical(session.next(model, f1), model.run(f1));
  const nn::streaming::StreamingStats& st = session.stats();
  const auto total = static_cast<std::int64_t>(plan.branches.size());
  // Frame 2 recomputed only the corner's branches.
  EXPECT_LT(st.branches_recomputed, 2 * total);
  EXPECT_GT(st.branches_skipped, 0);
  if (!model.pipelined_tail().empty()) {
    EXPECT_GT(st.bands_skipped, 0) << "clean-row bands should not rerun";
  }
}

TEST(Streaming, ToleranceModeSkipsMoreThanExact) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, int8_config(g));
  const nn::Tensor f0 = random_input(g.shape(0), 52);
  nn::Tensor f1 = f0;
  f1.at(3, 3, 0) += 1e-5f;  // sub-tolerance wiggle

  nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> exact;
  exact.next(model, f0);
  exact.next(model, f1);

  nn::streaming::StreamingConfig tol_cfg;
  tol_cfg.max_region_delta = 1e-3f;
  nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> tolerant(
      tol_cfg);
  tolerant.next(model, f0);
  const nn::QTensor got = tolerant.next(model, f1);

  EXPECT_GT(tolerant.stats().branches_skipped,
            exact.stats().branches_skipped);
  // Tolerance kept frame 1's bytes for the wiggled branch: output equals
  // the *previous* frame's exact output.
  expect_q_identical(got, model.run(f0));
}

// --- reset / rebind ---------------------------------------------------------

TEST(Streaming, ResetRecomputesAndStaysExact) {
  const nn::Graph g = models::make_model("mcunet", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, int8_config(g));
  const std::vector<nn::Tensor> stream = make_stream(g.shape(0), 3, 53);

  nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> session;
  for (const nn::Tensor& f : stream) session.next(model, f);
  session.reset();  // scene cut
  const std::int64_t before = session.stats().branches_recomputed;
  expect_q_identical(session.next(model, stream[0]), model.run(stream[0]));
  // Post-reset frame ran in full.
  EXPECT_EQ(session.stats().branches_recomputed - before,
            static_cast<std::int64_t>(plan.branches.size()));
}

TEST(Streaming, RebindToDifferentModelRecovers) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const auto cfg = int8_config(g);
  const patch::CompiledPatchQuantModel a(g, plan, cfg);
  const patch::CompiledPatchQuantModel b(g, plan, cfg);
  const nn::Tensor frame = random_input(g.shape(0), 54);

  nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> session;
  session.next(a, frame);
  // Handing the session another model (hot swap) must reset and re-prime,
  // not reuse state laid out for `a`.
  expect_q_identical(session.next(b, frame), b.run(frame));
  EXPECT_EQ(session.stats().unchanged_frames, 0);
}

TEST(Streaming, WorkerCountIsPinnedPerState) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, int8_config(g));
  const nn::Tensor frame = random_input(g.shape(0), 55);

  nn::WorkerPool two(2);
  nn::WorkerPool four(4);
  patch::StreamState state;
  state.branch_dirty.assign(plan.branches.size(), 1);
  (void)model.run_streaming(frame, &two, state);
  EXPECT_EQ(state.pinned_workers(), 2);
  // The retained layout depends on the worker count: switching pools
  // without reset() must be rejected, not silently corrupt.
  EXPECT_THROW((void)model.run_streaming(frame, &four, state),
               std::exception);
  state.reset();
  (void)model.run_streaming(frame, &four, state);
  EXPECT_EQ(state.pinned_workers(), 4);
}

// A primed quant stream re-quantizes only StreamState::changed_rows: the
// retained input slot keeps the previous frame's codes everywhere else.
// Spans from diff_frames reproduce the full run; spans that omit a changed
// pixel leave it stale (so the spans really limit the write); the frame
// consumes its spans, so the next frame without any quantizes in full; a
// span list of the wrong height is rejected.
TEST(Streaming, ChangedRowsLimitTheInputRestage) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 5)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, cfg);
  const std::vector<nn::Tensor> stream = make_stream(g.shape(0), 2, 61);
  const patch::FrameDiff diff = patch::diff_frames(stream[0], stream[1]);
  ASSERT_FALSE(diff.identical());

  // Every branch scheduled, so only the input spans decide the output.
  const auto next = [&](patch::StreamState& state,
                        std::vector<patch::Interval> rows) {
    state.branch_dirty.assign(plan.branches.size(), 1);
    state.changed_rows = std::move(rows);
    return model.run_streaming(stream[1], nullptr, state);
  };
  {
    patch::StreamState state;
    (void)model.run_streaming(stream[0], nullptr, state);
    expect_q_identical(next(state, diff.row_spans), model.run(stream[1]));
  }
  {
    patch::StreamState state;
    (void)model.run_streaming(stream[0], nullptr, state);
    const nn::QTensor stale =
        next(state, std::vector<patch::Interval>(diff.row_spans.size()));
    const nn::QTensor old = model.run(stream[0]);
    EXPECT_EQ(std::memcmp(stale.data().data(), old.data().data(),
                          old.data().size()),
              0);
    EXPECT_TRUE(state.changed_rows.empty());
    state.branch_dirty.assign(plan.branches.size(), 1);
    expect_q_identical(model.run_streaming(stream[1], nullptr, state),
                       model.run(stream[1]));
  }
  {
    patch::StreamState state;
    (void)model.run_streaming(stream[0], nullptr, state);
    EXPECT_THROW((void)next(state, std::vector<patch::Interval>(3)),
                 std::invalid_argument);
  }
}

// --- activation stats / drift ----------------------------------------------

TEST(Streaming, StatsHookObservesTailLayers) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 5)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, cfg);

  nn::streaming::StreamingConfig scfg;
  scfg.track_stats = true;
  nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> session(
      scfg);
  const nn::Tensor frame = random_input(g.shape(0), 60);
  expect_q_identical(session.next(model, frame), model.run(frame));
  // The hook saw the assembled map and every tail layer at least once.
  EXPECT_GT(session.tracker().observations(), 0);
  // In-distribution input: no drift alarm.
  EXPECT_FALSE(session.stats().needs_recalibration);
  EXPECT_GE(session.stats().drift_score, 0.0);
}

// A frame that throws (a NaN pixel fails input staging) must still unhook
// the tracker: a hook left on the model would feed this stream's tracker
// from every later request, and dangle once the session is destroyed.
TEST(Streaming, FailedFrameLeavesNoStatsHook) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 5)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, cfg);

  nn::streaming::StreamingConfig scfg;
  scfg.track_stats = true;
  nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> session(
      scfg);
  nn::Tensor bad = random_input(g.shape(0), 61);
  bad.data()[bad.data().size() / 2] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW((void)session.next(model, bad), std::invalid_argument);
  const std::int64_t seen = session.tracker().observations();
  (void)model.run(random_input(g.shape(0), 62));
  EXPECT_EQ(session.tracker().observations(), seen);
}

// The stats-hook contract, on every entry point: each completed run calls
// the hook exactly once per layer id from the cut layer through the last
// layer, with that layer's full output view — sequential, pipelined and
// streaming alike (a clean streaming frame included).
TEST(Streaming, StatsHookFiresOncePerLayerOnEveryEntryPoint) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
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
  const patch::CompiledPatchQuantModel model(
      g, plan.patch_plan, core::make_deployment_quant_config(g, plan, ranges),
      core::make_branch_quant_configs(g, plan, ranges));
  ASSERT_FALSE(model.branch_configs().empty()) << "needs a mixed-mode model";
  const int split = plan.patch_plan.spec.split_layer;

  std::vector<int> calls(static_cast<std::size_t>(g.size()), 0);
  model.set_stats_hook([&](int id, const nn::QTensor& t) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, g.size());
    EXPECT_EQ(t.shape(), g.shape(id)) << "layer " << id;
    ++calls[static_cast<std::size_t>(id)];
  });
  const auto expect_once_per_layer = [&](const char* entry) {
    for (int id = 0; id < g.size(); ++id) {
      EXPECT_EQ(calls[static_cast<std::size_t>(id)], id >= split ? 1 : 0)
          << entry << ", layer " << id;
    }
    std::fill(calls.begin(), calls.end(), 0);
  };

  const std::vector<nn::Tensor> stream = make_stream(g.shape(0), 3, 80);
  (void)model.run(stream[0]);
  expect_once_per_layer("run(in)");
  for (const int workers : {2, 4}) {
    nn::WorkerPool pool(workers);
    (void)model.run(stream[0], &pool);
    expect_once_per_layer("run(in, pool)");
  }
  for (const int workers : {1, 4}) {
    nn::WorkerPool pool(workers);
    patch::StreamState state;
    // Priming frame, a changed frame, then an identical frame whose
    // branches are all clean.
    for (std::size_t f = 0; f < stream.size(); ++f) {
      state.branch_dirty.assign(plan.patch_plan.branches.size(),
                                f == 2 ? 0 : 1);
      (void)model.run_streaming(stream[f], &pool, state);
      expect_once_per_layer("run_streaming");
    }
  }
  model.set_stats_hook(nullptr);
}

// Codes spread across the quantized range without touching the rails: the
// healthy deployment baseline the drift cases below decay away from.
nn::QTensor spread_codes(const nn::QuantParams& p) {
  nn::QTensor t({8, 8, 4}, p);
  std::int8_t code = -100;
  for (auto& v : t.data()) {
    v = code;
    code = code >= 100 ? std::int8_t{-100} : static_cast<std::int8_t>(code + 1);
  }
  return t;
}

TEST(Streaming, TrackerFlagsSaturationDrift) {
  // After a healthy baseline frame, the codes pile up at the clamp rails —
  // the signature of a calibrated range that became too narrow.
  nn::streaming::ActivationStatsConfig cfg;
  cfg.sample_stride = 1;
  cfg.ema = 0.5f;  // fast EMA: the drift shows within a few frames
  nn::streaming::ActivationStatsTracker tracker(cfg);
  const nn::QuantParams p = nn::choose_quant_params(-1.0f, 1.0f, 8);
  tracker.observe(0, spread_codes(p));
  EXPECT_FALSE(tracker.needs_recalibration()) << "baseline must be calm";

  nn::QTensor saturated({8, 8, 4}, p);
  const auto qmax = static_cast<std::int8_t>(p.qmax());
  std::fill(saturated.data().begin(), saturated.data().end(), qmax);
  for (int f = 0; f < 3; ++f) tracker.observe(0, saturated);
  EXPECT_GT(tracker.saturation_fraction(0), 0.5);
  EXPECT_GT(tracker.layer_drift(0), 1.0);
  EXPECT_TRUE(tracker.needs_recalibration());
  // The proposed range widens past the saturating edge.
  const auto proposed = tracker.drifted_ranges(1);
  ASSERT_EQ(proposed.size(), 1u);
  EXPECT_TRUE(proposed[0].seen);
  EXPECT_GT(proposed[0].max_v, p.dequantize(p.qmax()) - 1e-6f);
}

TEST(Streaming, TrackerFlagsShrunkenDistribution) {
  // Codes huddling around zero waste the calibrated span: utilization
  // collapse versus the baseline must raise drift without any saturation.
  nn::streaming::ActivationStatsConfig cfg;
  cfg.sample_stride = 1;
  cfg.ema = 0.5f;
  nn::streaming::ActivationStatsTracker tracker(cfg);
  const nn::QuantParams p = nn::choose_quant_params(-1.0f, 1.0f, 8);
  tracker.observe(3, spread_codes(p));
  EXPECT_FALSE(tracker.needs_recalibration());

  nn::QTensor narrow({8, 8, 4}, p);
  std::fill(narrow.data().begin(), narrow.data().end(), std::int8_t{1});
  for (int f = 0; f < 4; ++f) tracker.observe(3, narrow);
  EXPECT_EQ(tracker.saturation_fraction(3), 0.0);
  EXPECT_LT(tracker.range_utilization(3), 0.2);
  EXPECT_GT(tracker.layer_drift(3), 1.0);
  // The proposed range tightens onto the live values.
  const auto proposed = tracker.drifted_ranges(4);
  EXPECT_TRUE(proposed[3].seen);
  EXPECT_LT(proposed[3].max_v - proposed[3].min_v, 2.0f);
  // Unobserved layers stay unseen.
  EXPECT_FALSE(proposed[0].seen);
}

TEST(Streaming, InDistributionStreamStaysCalm) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 5),
                                      random_input(g.shape(0), 6)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, cfg);

  nn::streaming::StreamingConfig scfg;
  scfg.track_stats = true;
  nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> session(
      scfg);
  for (const nn::Tensor& f : make_stream(g.shape(0), 4, 70)) {
    session.next(model, f);
  }
  EXPECT_FALSE(session.stats().needs_recalibration);
}

}  // namespace
}  // namespace qmcu
