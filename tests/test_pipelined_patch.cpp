// Pipelined patch->tail dataflow execution (compiled_patch_model.h +
// worker_pool.h run_graph): the dependency-driven run(input, pool) must be
// bit-identical to the sequential compiled path for every model, quant
// mode, grid shape, worker count and branch readiness order; the row-band
// structure must wire its dependencies to exactly the producers of its
// input rows; and the widened-lifetime pipelined arena plan must keep
// everything live during the overlap window byte-disjoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/quantmcu.h"
#include "data/synthetic.h"
#include "models/zoo.h"
#include "nn/memory_planner.h"
#include "nn/rng.h"
#include "nn/runtime/arena_slab.h"
#include "nn/runtime/worker_pool.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
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

// A spec with the default mcunetv2 cut but a caller-chosen grid.
patch::PatchSpec grid_spec(const nn::Graph& g, int rows, int cols) {
  patch::PatchSpec spec = patch::plan_mcunetv2(g, {2, 2});
  spec.grid_rows = rows;
  spec.grid_cols = cols;
  return spec;
}

// --- parity across the zoo, pipelined vs sequential: int8, sub-byte --------

TEST(PipelinedPatch, QuantBitExactAcrossBitwidths) {
  for (const char* name : {"mobilenetv2", "mcunet", "mnasnet"}) {
    const nn::Graph g = models::make_model(name, small_cfg());
    const auto ranges = quant::calibrate_ranges(
        g, std::vector<nn::Tensor>{random_input(g.shape(0), 5)});
    const patch::PatchPlan plan =
        patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
    for (const int bits : {8, 4}) {
      const auto cfg = quant::make_quant_config(g, ranges,
                                                nn::uniform_bits(g, bits));
      const patch::CompiledPatchQuantModel model(g, plan, cfg);
      for (std::uint64_t seed = 11; seed <= 12; ++seed) {
        const nn::Tensor in = random_input(g.shape(0), seed);
        const nn::QTensor expect = model.run(in);
        for (const int workers : {2, 3, 4, 8}) {
          SCOPED_TRACE(std::string(name) + ", " + std::to_string(bits) +
                       " bits, " + std::to_string(workers) + " workers");
          nn::WorkerPool pool(workers);
          expect_q_identical(model.run(in, &pool), expect);
        }
      }
    }
  }
}

TEST(PipelinedPatch, MixedModeBitExact) {
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
  for (int i = 17; i < 19; ++i) {
    const nn::Tensor in = ds.image(i);
    const nn::QTensor expect = model.run(in);
    for (const int workers : {2, 3, 4}) {
      nn::WorkerPool pool(workers);
      expect_q_identical(model.run(in, &pool), expect);
    }
  }
}

// --- degenerate and uneven grids ---------------------------------------------

TEST(PipelinedPatch, OneByNGridStillOverlapsAndMatches) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  // A 1xN grid: every branch merges into the same (only) grid row, so the
  // first tail bands all wait on the full branch set — the degenerate
  // pipeline must still be exact.
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, grid_spec(g, 1, 4));
  const patch::CompiledPatchQuantModel model(g, plan, int8_config(g));
  const nn::Tensor in = random_input(g.shape(0), 21);
  const nn::QTensor expect = model.run(in);
  for (const int workers : {2, 4}) {
    nn::WorkerPool pool(workers);
    expect_q_identical(model.run(in, &pool), expect);
  }
}

TEST(PipelinedPatch, BorderHeavyUnevenGridMatches) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  // 3x5 over a map whose extent does not divide evenly: tiles (and branch
  // costs) differ row by row and column by column, exercising the
  // cost-weighted chunking and uneven row-readiness intervals.
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, grid_spec(g, 3, 5));
  const patch::CompiledPatchQuantModel model(g, plan, int8_config(g));
  const nn::Tensor in = random_input(g.shape(0), 24);
  const nn::QTensor expect = model.run(in);
  for (const int workers : {2, 3, 8}) {
    nn::WorkerPool pool(workers);
    expect_q_identical(model.run(in, &pool), expect);
  }
}

// --- adversarial readiness orders -------------------------------------------

TEST(PipelinedPatch, AdversarialReadinessOrdersStayBitExact) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, int8_config(g));
  const nn::Tensor in = random_input(g.shape(0), 31);
  const nn::QTensor expect = model.run(in);
  const int branches = static_cast<int>(plan.branches.size());
  const int cols = plan.spec.grid_cols;

  // Three adversarial schedules: stall the first grid row (tail rows
  // become ready bottom-up), stall the last (top-down — the natural order,
  // but with maximum skew), and stall even branches (interleaved).
  const auto stall_if = [&](auto pred) {
    return [pred](int branch) {
      if (pred(branch)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
    };
  };
  using Pred = std::function<bool(int)>;
  const std::vector<Pred> schedules = {
      [&](int b) { return b / cols == 0; },
      [&](int b) { return b / cols == plan.spec.grid_rows - 1; },
      [&](int b) { return b % 2 == 0; },
  };
  for (const auto& pred : schedules) {
    model.set_branch_completion_hook(stall_if(pred));
    for (const int workers : {2, 4}) {
      nn::WorkerPool pool(workers);
      expect_q_identical(model.run(in, &pool), expect);
    }
  }
  model.set_branch_completion_hook({});
  // Hook sanity: it must have been called once per branch per run.
  std::atomic<int> calls{0};
  model.set_branch_completion_hook([&](int) { ++calls; });
  nn::WorkerPool pool(4);
  expect_q_identical(model.run(in, &pool), expect);
  EXPECT_EQ(calls.load(), branches);
  model.set_branch_completion_hook({});
}

// --- pipeline structure invariants -------------------------------------------

TEST(PipelinedPatch, BandDependenciesCoverInputRows) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, int8_config(g));
  const auto prefix = model.pipelined_tail();
  ASSERT_FALSE(prefix.empty())
      << "mobilenetv2's tail should start with bandable layers";

  const int split = plan.spec.split_layer;
  for (std::size_t pi = 0; pi < prefix.size(); ++pi) {
    const patch::PipelinedTailLayer& pl = prefix[pi];
    ASSERT_EQ(pl.layer_id, split + 1 + static_cast<int>(pi));
    const nn::TensorShape& os = g.shape(pl.layer_id);
    // Bands partition the output rows in order.
    int next_row = 0;
    for (const patch::Interval& band : pl.bands) {
      EXPECT_EQ(band.begin, next_row);
      EXPECT_GT(band.size(), 0);
      next_row = band.end;
    }
    EXPECT_EQ(next_row, os.h);
    ASSERT_EQ(pl.grid_row_deps.size(), pl.bands.size());
    ASSERT_EQ(pl.band_deps.size(), pl.bands.size());
    // The layer right after the cut must depend on at least one grid row
    // per band, and only on valid rows / upstream bands.
    for (std::size_t j = 0; j < pl.bands.size(); ++j) {
      if (pi == 0) {
        EXPECT_FALSE(pl.grid_row_deps[j].empty());
      }
      for (const int r : pl.grid_row_deps[j]) {
        EXPECT_GE(r, 0);
        EXPECT_LT(r, plan.spec.grid_rows);
      }
      for (const auto& [qi, k] : pl.band_deps[j]) {
        ASSERT_GE(qi, 0);
        ASSERT_LT(qi, static_cast<int>(pi));
        ASSERT_GE(k, 0);
        ASSERT_LT(k, static_cast<int>(
                         prefix[static_cast<std::size_t>(qi)].bands.size()));
      }
    }
  }
}

TEST(PipelinedPatch, PipelinedPlanKeepsOverlapWindowDisjoint) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 41)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, cfg);

  for (const int workers : {2, 4}) {
    const nn::ParallelArenaPlan& p = model.pipelined_plan(workers);
    // Everything alive during the overlap (first_step == 0 after
    // widening: assembled map, quantized input, banded tail layers) must
    // be pairwise byte-disjoint.
    for (std::size_t a = 0; a < p.shared.slots.size(); ++a) {
      for (std::size_t b = a + 1; b < p.shared.slots.size(); ++b) {
        if (p.shared.slots[a].overlaps_lifetime(p.shared.slots[b])) {
          EXPECT_FALSE(p.shared.slots[a].overlaps_bytes(p.shared.slots[b]))
              << "slots " << a << "/" << b;
        }
      }
    }
  }
  // A pipelined run must stay inside its plan.
  nn::WorkerPool pool(4);
  (void)model.run(random_input(g.shape(0), 42), &pool);
  EXPECT_LE(model.measured_high_water(),
            model.pipelined_plan(4).total_bytes());
}

// --- repeated + interleaved runs reuse state cleanly -------------------------

TEST(PipelinedPatch, InterleavedModesReuseModelState) {
  const nn::Graph g = models::make_model("mcunet", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, int8_config(g));
  nn::WorkerPool pool(3);
  for (std::uint64_t seed = 50; seed < 53; ++seed) {
    const nn::Tensor in = random_input(g.shape(0), seed);
    const nn::QTensor expect = model.run(in);
    expect_q_identical(model.run(in, &pool), expect);
    expect_q_identical(model.run(in, &pool), expect);
  }
}

// --- arena slab leasing ------------------------------------------------------

// The pipelined TaskGraph skeleton is built once per worker count and
// reused across runs: repeated runs must not grow the cache (no per-run
// closure rebuilding) and must stay bit-identical to the first.
TEST(PipelinedPatch, TaskGraphCachedPerWorkerCount) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, int8_config(g));
  EXPECT_EQ(model.cached_pipeline_graphs(), 0u);

  const nn::Tensor in = random_input(g.shape(0), 42);
  nn::WorkerPool pool2(2);
  const nn::QTensor expect = model.run(in, &pool2);
  EXPECT_EQ(model.cached_pipeline_graphs(), 1u);

  for (int rep = 0; rep < 3; ++rep) {
    expect_q_identical(model.run(in, &pool2), expect);
  }
  // Same worker count -> same cached skeleton, no growth.
  EXPECT_EQ(model.cached_pipeline_graphs(), 1u);

  // A new worker count builds (and caches) a second skeleton; results stay
  // bit-identical, and re-running at either width grows nothing further.
  nn::WorkerPool pool4(4);
  expect_q_identical(model.run(in, &pool4), expect);
  EXPECT_EQ(model.cached_pipeline_graphs(), 2u);
  expect_q_identical(model.run(in, &pool2), expect);
  EXPECT_EQ(model.cached_pipeline_graphs(), 2u);
}

TEST(PipelinedPatch, ArenaSlabLeasesAcrossModelsAndModes) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 61)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));

  const patch::CompiledPatchQuantModel reference(g, plan, cfg);
  const nn::Tensor in = random_input(g.shape(0), 62);
  const nn::QTensor expect = reference.run(in);

  auto slab = std::make_shared<nn::ArenaSlab>();
  patch::CompiledPatchQuantModel a(g, plan, cfg);
  patch::CompiledPatchQuantModel b(g, plan, cfg);
  a.set_arena_source(slab);
  b.set_arena_source(slab);

  // Sequential traffic across two models: leases are returned after each
  // run, so the slab backs both models with one block (max, not sum).
  expect_q_identical(a.run(in), expect);
  expect_q_identical(b.run(in), expect);
  EXPECT_EQ(slab->outstanding_leases(), 0);
  EXPECT_EQ(slab->footprint_bytes(), a.arena_bytes());
  EXPECT_EQ(slab->high_water_bytes(), a.arena_bytes());

  // Parallel (pipelined) runs lease the bigger slice+shared layout; the
  // block grows but is still shared across models and released after.
  nn::WorkerPool pool(2);
  expect_q_identical(a.run(in, &pool), expect);
  expect_q_identical(b.run(in, &pool), expect);
  EXPECT_EQ(slab->outstanding_leases(), 0);
  EXPECT_LE(slab->footprint_bytes(),
            a.arena_bytes() + a.pipelined_plan(2).total_bytes());
}

}  // namespace
}  // namespace qmcu
