// Frame differencing (patch/streaming_diff.h) is the safety boundary of the
// streaming runtime: the exact dirty mask must be a conservative superset of
// "this branch's crop contains a changed byte" for every grid shape, stride
// and halo overlap, or temporal reuse silently corrupts outputs. These tests
// pin diff_frames' span/bounds/count bookkeeping, the clamped crop geometry,
// the dirty-rect mapper (including 1xN grids and overlapping receptive
// fields), both dirty_branches modes, and the crc fingerprint helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "models/zoo.h"
#include "nn/rng.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "patch/patch_plan.h"
#include "patch/streaming_diff.h"

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

// plan_mcunetv2 only plans square grids; asymmetric (1xN / Nx1) grids come
// from overriding the spec the planner picked — build_patch_plan accepts
// any grid the split shape admits.
patch::PatchPlan make_plan(const nn::Graph& g, int rows, int cols) {
  patch::PatchSpec spec =
      patch::plan_mcunetv2(g, {std::max({rows, cols, 2}), 4});
  spec.grid_rows = rows;
  spec.grid_cols = cols;
  return patch::build_patch_plan(g, spec);
}

// The ground-truth mask: branch b is dirty iff some changed pixel lies
// inside its clamped crop. The production mask must never clear a branch
// this flags.
std::vector<std::uint8_t> exact_ground_truth(const nn::Tensor& prev,
                                             const nn::Tensor& cur,
                                             const patch::PatchPlan& plan) {
  const nn::TensorShape s = prev.shape();
  std::vector<std::uint8_t> truth(plan.branches.size(), 0);
  for (std::size_t b = 0; b < plan.branches.size(); ++b) {
    const patch::Region crop =
        patch::branch_input_region(plan, static_cast<int>(b), s);
    for (int y = crop.y.begin; y < crop.y.end && !truth[b]; ++y) {
      for (int x = crop.x.begin; x < crop.x.end && !truth[b]; ++x) {
        for (int c = 0; c < s.c; ++c) {
          if (prev.at(y, x, c) != cur.at(y, x, c)) {
            truth[b] = 1;
            break;
          }
        }
      }
    }
  }
  return truth;
}

// --- diff_frames -------------------------------------------------------------

TEST(StreamingDiff, IdenticalFramesProduceEmptyDiff) {
  const nn::Tensor a = random_input({16, 20, 3}, 1);
  const nn::Tensor b = a;  // deep copy
  const patch::FrameDiff d = patch::diff_frames(a, b);
  EXPECT_TRUE(d.identical());
  EXPECT_EQ(d.changed_pixels, 0);
  EXPECT_TRUE(d.bounds.empty());
  ASSERT_EQ(d.row_spans.size(), 16u);
  for (const patch::Interval& span : d.row_spans) EXPECT_TRUE(span.empty());
  EXPECT_EQ(d.changed_fraction(a.shape()), 0.0);
}

TEST(StreamingDiff, SinglePixelChange) {
  const nn::Tensor a = random_input({12, 10, 3}, 2);
  nn::Tensor b = a;
  b.at(7, 4, 1) += 1.0f;
  const patch::FrameDiff d = patch::diff_frames(a, b);
  EXPECT_FALSE(d.identical());
  EXPECT_EQ(d.changed_pixels, 1);
  EXPECT_EQ(d.bounds.y, (patch::Interval{7, 8}));
  EXPECT_EQ(d.bounds.x, (patch::Interval{4, 5}));
  for (int y = 0; y < 12; ++y) {
    if (y == 7) {
      EXPECT_EQ(d.row_spans[static_cast<std::size_t>(y)],
                (patch::Interval{4, 5}));
    } else {
      EXPECT_TRUE(d.row_spans[static_cast<std::size_t>(y)].empty());
    }
  }
}

TEST(StreamingDiff, RowSpanIsHullOfChangedColumns) {
  const nn::Tensor a = random_input({8, 30, 2}, 3);
  nn::Tensor b = a;
  // Two disjoint changes on one row: the span must be their hull.
  b.at(3, 5, 0) += 1.0f;
  b.at(3, 25, 1) -= 1.0f;
  // And a change on another row bounding the y hull.
  b.at(6, 10, 0) += 2.0f;
  const patch::FrameDiff d = patch::diff_frames(a, b);
  EXPECT_EQ(d.changed_pixels, 3);
  EXPECT_EQ(d.row_spans[3], (patch::Interval{5, 26}));
  EXPECT_EQ(d.row_spans[6], (patch::Interval{10, 11}));
  EXPECT_EQ(d.bounds.y, (patch::Interval{3, 7}));
  EXPECT_EQ(d.bounds.x, (patch::Interval{5, 26}));
  EXPECT_DOUBLE_EQ(d.changed_fraction(a.shape()), 3.0 / (8 * 30));
}

TEST(StreamingDiff, DiffIsByteExactNotEpsilon) {
  // -0.0f and 0.0f compare equal as floats but differ as bytes: the diff
  // must flag them (the runtime's skip contract is byte identity).
  nn::Tensor a({2, 2, 1});
  std::fill(a.data().begin(), a.data().end(), 0.0f);
  nn::Tensor b = a;
  b.at(1, 1, 0) = -0.0f;
  EXPECT_EQ(patch::diff_frames(a, b).changed_pixels, 1);
}

// --- branch_input_region ----------------------------------------------------

TEST(StreamingDiff, BranchCropsAreClampedAndCoverTheImage) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const nn::TensorShape in_shape = g.shape(0);
  for (const auto& [rows, cols] : {std::pair{2, 2}, {1, 4}, {4, 1}, {3, 3}}) {
    const patch::PatchPlan plan = make_plan(g, rows, cols);
    std::int64_t covered = 0;
    for (std::size_t b = 0; b < plan.branches.size(); ++b) {
      const patch::Region crop =
          patch::branch_input_region(plan, static_cast<int>(b), in_shape);
      // Clamped to the image.
      EXPECT_GE(crop.y.begin, 0);
      EXPECT_GE(crop.x.begin, 0);
      EXPECT_LE(crop.y.end, in_shape.h);
      EXPECT_LE(crop.x.end, in_shape.w);
      EXPECT_FALSE(crop.empty());
      covered += crop.area();
    }
    // Halos overlap, so the crops must cover at least the whole image.
    EXPECT_GE(covered, static_cast<std::int64_t>(in_shape.h) * in_shape.w)
        << rows << "x" << cols;
  }
}

// --- affected_branches ------------------------------------------------------

TEST(StreamingDiff, AffectedBranchesMatchesCropOverlap) {
  const nn::Graph g = models::make_model("mcunet", small_cfg());
  const nn::TensorShape in_shape = g.shape(0);
  for (const auto& [rows, cols] : {std::pair{2, 2}, {1, 3}, {4, 4}}) {
    const patch::PatchPlan plan = make_plan(g, rows, cols);
    nn::Rng rng(91);
    for (int trial = 0; trial < 20; ++trial) {
      const int y0 = static_cast<int>(rng.uniform(0, in_shape.h));
      const int x0 = static_cast<int>(rng.uniform(0, in_shape.w));
      const int y1 = y0 + 1 + static_cast<int>(rng.uniform(0, in_shape.h - y0));
      const int x1 = x0 + 1 + static_cast<int>(rng.uniform(0, in_shape.w - x0));
      const patch::Region rect{{y0, y1}, {x0, x1}};
      const std::vector<int> got =
          patch::affected_branches(plan, rect, in_shape);
      const std::set<int> got_set(got.begin(), got.end());
      EXPECT_EQ(got_set.size(), got.size()) << "duplicate branch index";
      for (std::size_t b = 0; b < plan.branches.size(); ++b) {
        const patch::Region crop =
            patch::branch_input_region(plan, static_cast<int>(b), in_shape);
        const bool overlaps = crop.y.begin < rect.y.end &&
                              rect.y.begin < crop.y.end &&
                              crop.x.begin < rect.x.end &&
                              rect.x.begin < crop.x.end;
        EXPECT_EQ(got_set.count(static_cast<int>(b)) == 1, overlaps)
            << rows << "x" << cols << " branch " << b;
      }
    }
  }
}

TEST(StreamingDiff, EmptyRectAffectsNothing) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan = make_plan(g, 2, 2);
  EXPECT_TRUE(
      patch::affected_branches(plan, patch::Region{}, g.shape(0)).empty());
}

TEST(StreamingDiff, HaloOverlapDirtiesNeighbourBranches) {
  // A change inside patch (0,0)'s tile but within the halo of patch (0,1)
  // must dirty both branches.
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const nn::TensorShape in_shape = g.shape(0);
  const patch::PatchPlan plan = make_plan(g, 2, 2);
  const patch::Region crop1 = patch::branch_input_region(plan, 1, in_shape);
  // Column just inside branch 1's halo, on branch 0's side of the split.
  const int x = crop1.x.begin;
  ASSERT_LT(x, in_shape.w / 2) << "expected a halo reaching across the seam";
  const nn::Tensor prev = random_input(in_shape, 7);
  nn::Tensor cur = prev;
  cur.at(0, x, 0) += 1.0f;
  const std::vector<std::uint8_t> dirty =
      patch::dirty_branches(prev, cur, plan);
  EXPECT_TRUE(dirty[0]);
  EXPECT_TRUE(dirty[1]);
}

// --- dirty_branches ---------------------------------------------------------

TEST(StreamingDiff, ExactMaskIsConservativeSuperset) {
  const nn::Graph g = models::make_model("mnasnet", small_cfg());
  const nn::TensorShape in_shape = g.shape(0);
  for (const auto& [rows, cols] : {std::pair{2, 2}, {1, 4}, {3, 3}}) {
    const patch::PatchPlan plan = make_plan(g, rows, cols);
    nn::Rng rng(13);
    for (int trial = 0; trial < 10; ++trial) {
      const nn::Tensor prev = random_input(in_shape, 100 + trial);
      nn::Tensor cur = prev;
      const int n = 1 + static_cast<int>(rng.uniform(0, 5));
      for (int i = 0; i < n; ++i) {
        cur.at(static_cast<int>(rng.uniform(0, in_shape.h)),
               static_cast<int>(rng.uniform(0, in_shape.w)), 0) += 1.0f;
      }
      const std::vector<std::uint8_t> mask =
          patch::dirty_branches(prev, cur, plan);
      // The session's form, from the diff it already computed.
      ASSERT_EQ(patch::dirty_branches(patch::diff_frames(prev, cur), plan,
                                      in_shape),
                mask);
      const std::vector<std::uint8_t> truth =
          exact_ground_truth(prev, cur, plan);
      ASSERT_EQ(mask.size(), truth.size());
      for (std::size_t b = 0; b < mask.size(); ++b) {
        // Conservative: everything truly dirty is flagged. (The row-hull
        // approximation may flag extra branches; that is allowed.)
        if (truth[b]) {
          EXPECT_TRUE(mask[b]) << "missed dirty branch " << b;
        }
      }
    }
  }
}

TEST(StreamingDiff, UnchangedFrameYieldsAllClean) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const patch::PatchPlan plan = make_plan(g, 2, 2);
  const nn::Tensor a = random_input(g.shape(0), 21);
  const std::vector<std::uint8_t> mask = patch::dirty_branches(a, a, plan);
  EXPECT_TRUE(std::all_of(mask.begin(), mask.end(),
                          [](std::uint8_t d) { return d == 0; }));
}

TEST(StreamingDiff, ToleranceModeForgivesSmallDeltas) {
  const nn::Graph g = models::make_model("mobilenetv2", small_cfg());
  const nn::TensorShape in_shape = g.shape(0);
  const patch::PatchPlan plan = make_plan(g, 2, 2);
  const nn::Tensor prev = random_input(in_shape, 33);
  nn::Tensor cur = prev;
  cur.at(2, 2, 0) += 1e-4f;  // tiny change in branch 0's tile

  const std::vector<std::uint8_t> exact =
      patch::dirty_branches(prev, cur, plan);
  EXPECT_TRUE(exact[0]);

  // Mean |delta| over branch 0's crop is far below 1e-2: tolerant mask
  // clears it.
  const std::vector<std::uint8_t> tolerant =
      patch::dirty_branches(prev, cur, plan, 1e-2f);
  EXPECT_FALSE(tolerant[0]);

  // A tolerance of 0 (or negative) is the exact mask.
  EXPECT_EQ(patch::dirty_branches(prev, cur, plan, 0.0f), exact);

  // A large change defeats any reasonable tolerance.
  nn::Tensor big = prev;
  for (int y = 0; y < in_shape.h / 2; ++y) {
    for (int x = 0; x < in_shape.w / 2; ++x) {
      big.at(y, x, 0) += 100.0f;
    }
  }
  EXPECT_TRUE(patch::dirty_branches(prev, big, plan, 1e-2f)[0]);
}

// --- crc fingerprints -------------------------------------------------------

TEST(StreamingDiff, CrcFingerprintsDetectContentChanges) {
  const nn::Tensor a = random_input({10, 8, 3}, 55);
  nn::Tensor b = a;
  EXPECT_EQ(patch::tensor_crc32(a), patch::tensor_crc32(b));
  b.at(4, 4, 2) += 1.0f;
  EXPECT_NE(patch::tensor_crc32(a), patch::tensor_crc32(b));

  // Row fingerprints localise the change.
  EXPECT_EQ(patch::rows_crc32(a, {0, 4}), patch::rows_crc32(b, {0, 4}));
  EXPECT_NE(patch::rows_crc32(a, {4, 5}), patch::rows_crc32(b, {4, 5}));

  // Region fingerprints: the changed pixel's region differs, a disjoint
  // region does not.
  EXPECT_NE(patch::region_crc32(a, {{3, 6}, {3, 6}}),
            patch::region_crc32(b, {{3, 6}, {3, 6}}));
  EXPECT_EQ(patch::region_crc32(a, {{0, 3}, {0, 3}}),
            patch::region_crc32(b, {{0, 3}, {0, 3}}));
}

TEST(StreamingDiff, QTensorCrcMatchesContent) {
  nn::QTensor a({4, 4, 2}, nn::choose_quant_params(-1.0f, 1.0f, 8));
  nn::Rng rng(66);
  for (auto& v : a.data()) {
    v = static_cast<std::int8_t>(rng.uniform(-128, 128));
  }
  nn::QTensor b = a;
  EXPECT_EQ(patch::tensor_crc32(a), patch::tensor_crc32(b));
  b.at(1, 2, 0) = static_cast<std::int8_t>(b.at(1, 2, 0) + 1);
  EXPECT_NE(patch::tensor_crc32(a), patch::tensor_crc32(b));
  EXPECT_NE(patch::rows_crc32(a, {1, 2}), patch::rows_crc32(b, {1, 2}));
  EXPECT_EQ(patch::rows_crc32(a, {2, 4}), patch::rows_crc32(b, {2, 4}));
}

}  // namespace
}  // namespace qmcu
