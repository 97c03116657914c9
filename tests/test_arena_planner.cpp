// Tests for concrete arena placement (nn::ArenaPlanner) and the
// measured-vs-predicted contract of the compiled executors: no two
// lifetime-overlapping tensors may share bytes, and the arena high-water a
// compiled run actually touches must equal the planner's peak_bytes.
#include <gtest/gtest.h>

#include "models/weights.h"
#include "models/zoo.h"
#include "nn/compiled_model.h"
#include "nn/memory_planner.h"
#include "nn/rng.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "patch/patch_plan.h"
#include "quant/calibration.h"

namespace qmcu::nn {
namespace {

void expect_no_live_overlap(const ArenaPlan& plan) {
  for (std::size_t a = 0; a < plan.slots.size(); ++a) {
    for (std::size_t b = a + 1; b < plan.slots.size(); ++b) {
      const ArenaSlot& x = plan.slots[a];
      const ArenaSlot& y = plan.slots[b];
      if (!x.overlaps_lifetime(y)) continue;
      EXPECT_FALSE(x.overlaps_bytes(y))
          << "slots " << a << " and " << b << " are live together at ["
          << x.offset << ", " << x.offset + x.size << ") and [" << y.offset
          << ", " << y.offset + y.size << ")";
    }
  }
}

TEST(ArenaPlanner, RandomizedIntervalsNeverOverlapInBytes) {
  Rng rng(0xa7e4a);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 3 + static_cast<int>(rng.uniform(0, 30));
    std::vector<ArenaRequest> requests;
    requests.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int first = static_cast<int>(rng.uniform(0, 40));
      const int len = static_cast<int>(rng.uniform(0, 10));
      requests.push_back({1 + static_cast<std::int64_t>(rng.uniform(0, 4096)),
                          first, first + len});
    }
    const ArenaPlan plan = ArenaPlanner().plan(requests);
    ASSERT_EQ(plan.slots.size(), requests.size());
    expect_no_live_overlap(plan);
    // The arena extent is exactly the furthest slot end, and can never
    // undercut the sum-of-live accounting bound.
    std::int64_t extent = 0;
    for (const ArenaSlot& s : plan.slots) {
      extent = std::max(extent, s.offset + s.size);
    }
    EXPECT_EQ(plan.peak_bytes, extent);
    EXPECT_GE(plan.peak_bytes, plan.live_peak_bytes);
  }
}

TEST(ArenaPlanner, DisjointLifetimesShareBytes) {
  // Two tensors that are never live together must reuse the same offset.
  std::vector<ArenaRequest> requests{{1000, 0, 1}, {1000, 2, 3}};
  const ArenaPlan plan = ArenaPlanner().plan(requests);
  EXPECT_EQ(plan.slots[0].offset, 0);
  EXPECT_EQ(plan.slots[1].offset, 0);
  EXPECT_EQ(plan.peak_bytes, 1000);
}

TEST(ArenaPlanner, ChainPacksToAccountingPeak) {
  // A pure chain (producer + consumer live pairwise) packs without
  // fragmentation: placed extent == sum-of-live peak.
  Graph g("chain");
  const int in = g.add_input(TensorShape{8, 8, 4});
  const int a = g.add_conv2d(in, 16, 3, 1, 1, Activation::ReLU);
  const int b = g.add_conv2d(a, 2, 3, 2, 1, Activation::ReLU);
  g.add_global_avg_pool(b);
  const ArenaPlan plan = ArenaPlanner(1).plan(g, uniform_bits(g, 8));
  const MemoryPlan accounting = plan_layer_based(g, uniform_bits(g, 8));
  EXPECT_EQ(plan.peak_bytes, accounting.peak_bytes);
  EXPECT_EQ(plan.live_peak_bytes, accounting.peak_bytes);
  expect_no_live_overlap(plan);
}

TEST(ArenaPlanner, HonoursSubByteBitwidths) {
  Graph g("t");
  const int in = g.add_input(TensorShape{8, 8, 8});
  g.add_conv2d(in, 8, 3, 1, 1, Activation::ReLU);
  const ArenaPlan p8 = ArenaPlanner(1).plan(g, uniform_bits(g, 8));
  const ArenaPlan p4 = ArenaPlanner(1).plan(g, uniform_bits(g, 4));
  EXPECT_EQ(p4.peak_bytes * 2, p8.peak_bytes);
}

TEST(ArenaPlanner, DeterministicPlacement) {
  Rng rng(7);
  std::vector<ArenaRequest> requests;
  for (int i = 0; i < 20; ++i) {
    const int first = static_cast<int>(rng.uniform(0, 10));
    requests.push_back({64 * (1 + static_cast<std::int64_t>(rng.uniform(0, 8))),
                        first, first + static_cast<int>(rng.uniform(0, 5))});
  }
  const ArenaPlan a = ArenaPlanner().plan(requests);
  const ArenaPlan b = ArenaPlanner().plan(requests);
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots[i].offset, b.slots[i].offset);
  }
}

TEST(ArenaPlanner, ParallelPlanReplicatesSliceAndAppendsShared) {
  Rng rng(0x9b1d);
  for (int trial = 0; trial < 20; ++trial) {
    const auto random_requests = [&](int n) {
      std::vector<ArenaRequest> reqs;
      for (int i = 0; i < n; ++i) {
        const int first = static_cast<int>(rng.uniform(0, 12));
        reqs.push_back(
            {1 + static_cast<std::int64_t>(rng.uniform(0, 2048)), first,
             first + static_cast<int>(rng.uniform(0, 6))});
      }
      return reqs;
    };
    const auto slice_reqs =
        random_requests(2 + static_cast<int>(rng.uniform(0, 8)));
    const auto shared_reqs =
        random_requests(1 + static_cast<int>(rng.uniform(0, 8)));
    const int workers = 1 + static_cast<int>(rng.uniform(0, 8));
    const ParallelArenaPlan p =
        ArenaPlanner().plan_parallel(slice_reqs, shared_reqs, workers);

    EXPECT_EQ(p.num_workers, workers);
    expect_no_live_overlap(p.slice);
    expect_no_live_overlap(p.shared);
    // The stride covers the slice plan and keeps every slice base aligned.
    EXPECT_GE(p.slice_stride, p.slice.peak_bytes);
    EXPECT_EQ(p.slice_stride % 16, 0);
    for (const ArenaSlot& s : p.slice.slots) {
      EXPECT_LE(s.offset + s.size, p.slice_stride);
    }
    // Slices tile [0, shared_offset); the shared region follows.
    for (int w = 0; w < workers; ++w) {
      EXPECT_EQ(p.slice_offset(w), static_cast<std::int64_t>(w) * p.slice_stride);
    }
    EXPECT_EQ(p.shared_offset(), p.slice_stride * workers);
    EXPECT_EQ(p.total_bytes(), p.shared_offset() + p.shared.peak_bytes);
  }
}

TEST(ArenaPlanner, PipelinedPlanWidensOverlapWindow) {
  // Shared timeline: steps 0-1 are the branch phase, steps 2-3 banded tail
  // layers, steps 4-5 the post-join rest. Horizon = 3 (last banded step).
  const std::vector<ArenaRequest> slice = {{64, 0, 1}};
  const std::vector<ArenaRequest> shared = {
      {128, 0, 2},   // assembled map: born at 0, read by the first band
      {96, 0, 1},    // quantized input: live across the branch phase
      {80, 2, 3},    // banded tail layer A
      {72, 3, 4},    // banded tail layer B, read by the rest
      {48, 4, 5},    // rest layer (after the join)
  };
  const ParallelArenaPlan p =
      ArenaPlanner().plan_pipelined(slice, shared, 2, 3);

  // Everything born at or before the horizon is widened to [0, >=3]: those
  // four slots all overlap in lifetime now, so they must be pairwise
  // byte-disjoint even though e.g. the quantized input (dead at step 1 on
  // the barrier timeline) could have shared bytes with tail layer A.
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      EXPECT_TRUE(p.shared.slots[a].overlaps_lifetime(p.shared.slots[b]))
          << a << "/" << b;
      EXPECT_FALSE(p.shared.slots[a].overlaps_bytes(p.shared.slots[b]))
          << a << "/" << b;
    }
  }
  // The widened window must cover at least the sum of the always-live
  // slots; the barrier plan may be smaller (it reuses the input's bytes).
  const ParallelArenaPlan barrier =
      ArenaPlanner().plan_parallel(slice, shared, 2);
  EXPECT_GE(p.shared.peak_bytes, 128 + 96 + 80 + 72);
  EXPECT_LE(barrier.shared.peak_bytes, p.shared.peak_bytes);
  // Post-horizon requests keep their lifetimes: the rest layer may still
  // recycle bytes of a widened slot that dies at the horizon.
  EXPECT_EQ(p.shared.slots[4].first_step, 4);
  // Slices are untouched by the widening.
  EXPECT_EQ(p.slice.peak_bytes, barrier.slice.peak_bytes);
}

TEST(ArenaPlanner, PipelinedPlanRejectsNegativeHorizon) {
  const std::vector<ArenaRequest> reqs = {{16, 0, 0}};
  EXPECT_THROW((void)ArenaPlanner().plan_pipelined(reqs, reqs, 1, -1),
               std::exception);
}

TEST(ArenaPlanner, ParallelPlanRejectsZeroWorkers) {
  const std::vector<ArenaRequest> reqs{{64, 0, 1}};
  EXPECT_THROW(ArenaPlanner().plan_parallel(reqs, reqs, 0),
               std::invalid_argument);
}

TEST(ArenaPlanner, RejectsInvertedLifetime) {
  std::vector<ArenaRequest> requests{{64, 3, 1}};
  EXPECT_THROW(ArenaPlanner().plan(requests), std::invalid_argument);
}

// --- measured high-water == planned peak, across the model zoo ------------

models::ModelConfig tiny_config() {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.35f;
  cfg.resolution = 64;
  cfg.num_classes = 10;
  return cfg;
}

Tensor random_input(TensorShape s, std::uint64_t seed) {
  Tensor t(s);
  Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

// Per-branch per-step params at seeded widths from {2, 4, 8}.
std::vector<patch::BranchQuantConfig> mixed_branch_configs(
    const patch::PatchPlan& plan, std::span<const quant::LayerRange> ranges,
    std::uint64_t seed) {
  Rng rng(seed);
  constexpr int kWidths[] = {2, 4, 8};
  std::vector<patch::BranchQuantConfig> cfgs(plan.branches.size());
  for (std::size_t b = 0; b < plan.branches.size(); ++b) {
    for (const patch::BranchStep& step : plan.branches[b].steps) {
      const auto& r = ranges[static_cast<std::size_t>(step.layer_id)];
      cfgs[b].per_step.push_back(choose_quant_params(
          r.min_v, r.max_v, kWidths[static_cast<int>(rng.uniform() * 3) % 3]));
    }
  }
  return cfgs;
}

TEST(CompiledArena, MeasuredHighWaterEqualsPlannedPeakOnZooModels) {
  for (const char* name : {"mobilenetv2", "mcunet", "resnet18",
                           "squeezenet"}) {
    const Graph g = models::make_model(name, tiny_config());
    const Tensor in = random_input(g.shape(0), 11);

    const CompiledModel fmodel(g);
    (void)fmodel.run(in);
    EXPECT_EQ(fmodel.measured_high_water(), fmodel.arena_bytes()) << name;
    expect_no_live_overlap(fmodel.arena_plan());

    const auto ranges =
        quant::calibrate_ranges(g, std::vector<Tensor>{in});
    const auto cfg = quant::make_quant_config(g, ranges, uniform_bits(g, 8));
    const CompiledQuantModel qmodel(g, cfg);
    (void)qmodel.run(in);
    EXPECT_EQ(qmodel.measured_high_water(), qmodel.arena_bytes()) << name;
    expect_no_live_overlap(qmodel.arena_plan());

    // Mixed patch deployment: seeded 2/4/8-bit branch steps, so the sub-byte
    // maps are stored packed. The engine must write exactly the packed
    // bytes it planned — an unpacked write would overshoot the peak.
    const patch::PatchPlan plan =
        patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
    const patch::CompiledPatchQuantModel mixed(
        g, plan, cfg, mixed_branch_configs(plan, ranges, 5));
    (void)mixed.run(in);
    EXPECT_EQ(mixed.measured_high_water(), mixed.arena_bytes()) << name;
    expect_no_live_overlap(mixed.arena_plan());
  }
}

TEST(CompiledArena, PatchModelsMeasureTheirPlannedPeak) {
  const Graph g = models::make_model("mobilenetv2", tiny_config());
  const Tensor in = random_input(g.shape(0), 12);
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const auto ranges = quant::calibrate_ranges(g, std::vector<Tensor>{in});
  const auto cfg = quant::make_quant_config(g, ranges, uniform_bits(g, 8));
  const patch::CompiledPatchQuantModel qmodel(g, plan, cfg);
  (void)qmodel.run(in);
  EXPECT_EQ(qmodel.measured_high_water(), qmodel.arena_bytes());
  expect_no_live_overlap(qmodel.arena_plan());
}

TEST(CompiledArena, ArenaIsSmallerThanKeepEverything) {
  // The whole point of placement: the arena must undercut the keep-every-
  // feature-map footprint on a real network.
  const Graph g = models::make_model("mobilenetv2", tiny_config());
  std::int64_t keep_all = 0;
  for (int i = 0; i < g.size(); ++i) keep_all += g.shape(i).elements();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<Tensor>{random_input(g.shape(0), 13)});
  const auto cfg = quant::make_quant_config(g, ranges, uniform_bits(g, 8));
  const CompiledQuantModel qmodel(g, cfg);
  EXPECT_LT(qmodel.arena_bytes(), keep_all / 2);
}

}  // namespace
}  // namespace qmcu::nn
