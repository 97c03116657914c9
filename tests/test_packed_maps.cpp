// Packed sub-byte branch-step feature maps (patch/packed_map.h): the row
// layout, the halo crop and the merge at 2 and 4 bits against their dense
// twins, and the compiled patch engine storing every sub-byte branch map
// packed — bit-identical to layer-based inference and to the per-step
// oracle (patch_oracle.h) across op kinds, odd channel counts, tiers and
// schedules, in a smaller arena.
#include <gtest/gtest.h>

#include <vector>

#include "models/weights.h"
#include "nn/executor.h"
#include "nn/memory_planner.h"
#include "nn/ops/simd/simd_kernels.h"
#include "nn/rng.h"
#include "nn/runtime/worker_pool.h"
#include "patch/compiled_patch_model.h"
#include "patch/packed_map.h"
#include "patch/region_crop.h"
#include "patch/region_pool.h"
#include "patch_oracle.h"
#include "quant/bitpack.h"
#include "quant/calibration.h"

namespace qmcu::patch {
namespace {

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

nn::QTensor random_q(nn::TensorShape s, const nn::QuantParams& p,
                     std::uint64_t seed) {
  nn::QTensor t(s, p);
  nn::Rng rng(seed);
  const int span = p.qmax() - p.qmin() + 1;
  for (std::int8_t& v : t.data()) {
    v = static_cast<std::int8_t>(
        p.qmin() + static_cast<int>(rng.uniform() * span) % span);
  }
  return t;
}

void expect_q_identical(const nn::QTensor& a, const nn::QTensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(a.params(), b.params());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(static_cast<int>(a.data()[i]), static_cast<int>(b.data()[i]))
        << "element " << i;
  }
}

// A packed map (with its backing bytes) holding the values of `dense`.
struct OwnedPacked {
  std::vector<std::uint8_t> bytes;
  PackedMap map;
};

OwnedPacked pack_map(const nn::QTensor& dense) {
  OwnedPacked o;
  o.bytes.assign(static_cast<std::size_t>(PackedMap::storage_bytes(
                     dense.shape(), dense.params().bits)),
                 0xA5);
  o.map = bind_packed_map(o.bytes.data(), dense.shape(), dense.params());
  o.map.store_rows(0, dense);
  return o;
}

// The unpacking tiers: scalar, and the Simd table when the host has one.
std::vector<const nn::ops::simd::SimdKernels*> tiers() {
  std::vector<const nn::ops::simd::SimdKernels*> t{nullptr};
  if (nn::ops::simd::kernels() != nullptr) {
    t.push_back(nn::ops::simd::kernels());
  }
  return t;
}

class PackedBits : public ::testing::TestWithParam<int> {};

TEST(PackedMapLayout, RowsArePaddedTo32Elements) {
  const nn::TensorShape s{3, 7, 5};  // 35 elements per row
  EXPECT_EQ(PackedMap::row_stride(s, 4), 64 / 2);
  EXPECT_EQ(PackedMap::row_stride(s, 2), 64 / 4);
  EXPECT_EQ(PackedMap::row_stride(s, 8), 35);
  EXPECT_EQ(PackedMap::storage_bytes(s, 4), 3 * 32);
  EXPECT_EQ(quant::packed_row_bytes(32, 4), 16);
  EXPECT_EQ(quant::packed_row_bytes(33, 2), 16);
}

TEST_P(PackedBits, StoreThenUnpackEveryRangeRoundTrips) {
  const int bits = GetParam();
  const nn::QuantParams p = nn::choose_quant_params(-2.0f, 3.0f, bits);
  const nn::QTensor dense = random_q({4, 7, 3}, p, 1);
  const OwnedPacked o = pack_map(dense);
  const std::int64_t n = o.map.row_elements();
  for (const auto* simd : tiers()) {
    for (int y = 0; y < 4; ++y) {
      for (std::int64_t first = 0; first < n; ++first) {
        for (const std::int64_t count : {std::int64_t{1}, n - first}) {
          std::vector<std::int8_t> got(static_cast<std::size_t>(count));
          o.map.unpack(y, first, count, got.data(), simd);
          for (std::int64_t i = 0; i < count; ++i) {
            ASSERT_EQ(got[static_cast<std::size_t>(i)],
                      dense.data()[static_cast<std::size_t>(y * n + first +
                                                            i)])
                << "bits " << bits << " row " << y << " first " << first;
          }
        }
      }
    }
  }
}

TEST_P(PackedBits, PackIntoMatchesPackAndZeroesUnusedFields) {
  const int bits = GetParam();
  const nn::QuantParams p = nn::choose_quant_params(-1.0f, 1.0f, bits);
  for (const int count : {1, 3, 31, 32, 33, 77}) {
    const nn::QTensor v = random_q({1, 1, count}, p, 2 + count);
    std::vector<std::uint8_t> got(
        static_cast<std::size_t>(quant::packed_size_bytes(count, bits)),
        0xFF);
    quant::pack_into(v.data().data(), count, bits, got.data());
    EXPECT_EQ(got, quant::pack(v.data(), bits)) << "count " << count;
  }
}

// Halo crops from a packed map, including windows that start mid-byte
// (odd channel counts at odd x offsets) and reach into zero padding.
TEST_P(PackedBits, CropMatchesDenseCropAtEveryOffset) {
  const int bits = GetParam();
  const nn::QuantParams p = nn::choose_quant_params(-1.5f, 2.5f, bits);
  for (const int c : {1, 3, 5}) {
    const nn::TensorShape full{9, 11, c};
    const auto check = [&](const nn::QTensor& have, const Region& avail,
                           const Region& want) {
      const OwnedPacked o = pack_map(have);
      const nn::TensorShape s{want.y.size(), want.x.size(), c};
      nn::QTensor expect(s, p);
      crop_from_region_q_into(have, avail, want, full, expect);
      for (const auto* simd : tiers()) {
        nn::QTensor got(s, p);
        crop_packed_into(o.map, avail, want, full, got, simd);
        expect_q_identical(got, expect);
      }
    };
    // Windows inside a producer region that does not start at the origin.
    const Region avail{{2, 8}, {1, 10}};
    const nn::QTensor part =
        random_q({avail.y.size(), avail.x.size(), c}, p, 10 + c);
    for (int y = 2; y <= 5; ++y) {
      for (int x = 1; x <= 5; ++x) {
        check(part, avail, Region{{y, y + 3}, {x, x + 5}});
      }
    }
    // Windows past every edge of a whole map take the zero point.
    const nn::QTensor all = random_q(full, p, 20 + c);
    for (const Region& want :
         {Region{{-1, 3}, {-2, 4}}, Region{{6, 10}, {8, 12}},
          Region{{-1, 10}, {-1, 12}}}) {
      check(all, full_region(full), want);
    }
  }
}

TEST_P(PackedBits, MergeMatchesDenseMerge) {
  const int bits = GetParam();
  const nn::QuantParams tile_p = nn::choose_quant_params(-1.0f, 2.0f, bits);
  const nn::QuantParams same = tile_p;
  const nn::QuantParams int8 = nn::choose_quant_params(-1.5f, 2.5f, 8);
  const Region r{{2, 5}, {3, 8}};
  for (const int c : {3, 5}) {
    const nn::QTensor tile = random_q({3, 5, c}, tile_p, 30 + c);
    const OwnedPacked o = pack_map(tile);
    for (const nn::QuantParams& ap : {same, int8}) {
      for (const auto* simd : tiers()) {
        nn::QTensor expect = random_q({7, 9, c}, ap, 40);
        nn::QTensor got = expect;
        merge_region_q(tile, r, expect, simd);
        merge_region_q(o.map, r, got, simd);
        expect_q_identical(got, expect);
        // Compare-before-write: the same bytes, a change reported once.
        nn::QTensor fresh = random_q({7, 9, c}, ap, 41);
        nn::QTensor fresh_dense = fresh;
        const bool a = merge_region_q_changed(tile, r, fresh_dense, simd);
        const bool b = merge_region_q_changed(o.map, r, fresh, simd);
        EXPECT_EQ(a, b);
        expect_q_identical(fresh, fresh_dense);
        EXPECT_FALSE(merge_region_q_changed(o.map, r, fresh, simd));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SubByte, PackedBits, ::testing::Values(2, 4));

// --- the engine ------------------------------------------------------------

// Odd channel counts everywhere and every op a branch can hold: a strided
// 3x3 conv, a depthwise conv, a pointwise conv, a residual Add, max and
// average pools (padding excluded), and a Concat at the cut.
nn::Graph odd_net() {
  nn::Graph g("odd");
  const int in = g.add_input(nn::TensorShape{23, 23, 3});
  const int a = g.add_conv2d(in, 5, 3, 2, 1, nn::Activation::ReLU);
  const int b = g.add_depthwise_conv2d(a, 3, 1, 1, nn::Activation::ReLU);
  const int c = g.add_conv2d(b, 5, 1, 1, 0, nn::Activation::None);
  const int d = g.add_residual_add(a, c, nn::Activation::None);
  const int e = g.add_max_pool(d, 3, 1, 1);
  const int f = g.add_avg_pool(e, 3, 2, 1);
  const int h1 = g.add_conv2d(f, 3, 1, 1, 0, nn::Activation::ReLU);
  const int h2 = g.add_depthwise_conv2d(f, 3, 1, 1, nn::Activation::ReLU);
  const std::vector<int> cat{h1, h2};
  const int h = g.add_concat(cat);
  const int t = g.add_conv2d(h, 7, 3, 1, 1, nn::Activation::ReLU);
  g.add_global_avg_pool(t);
  g.add_fully_connected(g.size() - 1, 6, nn::Activation::None);
  models::init_parameters(g, 91);
  return g;
}

PatchPlan odd_plan(const nn::Graph& g, int grid) {
  PatchSpec spec;
  spec.split_layer = 9;  // the Concat
  spec.grid_rows = spec.grid_cols = grid;
  return build_patch_plan(g, spec);
}

using test::random_branch_cfgs;

// Uniform sub-byte mode: every branch map is stored packed, and the patch
// model must still equal layer-based integer inference exactly.
TEST_P(PackedBits, UniformSubByteEqualsLayerBasedOnOddChannels) {
  const int bits = GetParam();
  const nn::Graph g = odd_net();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 1),
                                      random_input(g.shape(0), 2)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, bits));
  const nn::QuantExecutor layer(g, cfg);
  for (const int grid : {2, 3}) {
    const CompiledPatchQuantModel model(g, odd_plan(g, grid), cfg);
    const CompiledPatchQuantModel ref(g, odd_plan(g, grid), cfg, {},
                                      nn::ops::KernelTier::Reference);
    for (std::uint64_t seed = 5; seed < 7; ++seed) {
      const nn::Tensor in = random_input(g.shape(0), seed);
      const nn::QTensor expect = layer.run(in);
      expect_q_identical(model.run(in), expect);
      expect_q_identical(ref.run(in), expect);
    }
    EXPECT_EQ(model.measured_high_water(), model.arena_bytes());
  }
}

// Mixed mode with 2-, 4- and 8-bit steps drawn per branch: the compiled
// engine (packed maps) equals the Reference per-step oracle, on every tier
// and schedule.
TEST(PackedBranchMaps, MixedWidthsMatchOracleOnEveryTierAndSchedule) {
  const nn::Graph g = odd_net();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 3)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const PatchPlan plan = odd_plan(g, 3);
  const std::vector<int> widths{2, 4, 8};
  const auto branch_cfgs = random_branch_cfgs(plan, ranges, widths, 17);

  const CompiledPatchQuantModel simd(g, plan, cfg, branch_cfgs);
  const CompiledPatchQuantModel ref(g, plan, cfg, branch_cfgs,
                                    nn::ops::KernelTier::Reference);
  test::PatchOracle oracle(ref);
  nn::WorkerPool pool(3);
  StreamState stream;
  for (std::uint64_t seed = 8; seed < 11; ++seed) {
    const nn::Tensor in = random_input(g.shape(0), seed);
    const nn::QTensor expect = oracle.run(in);
    expect_q_identical(simd.run(in), expect);
    EXPECT_EQ(simd.measured_high_water(), simd.arena_bytes());
    expect_q_identical(ref.run(in), expect);
    expect_q_identical(simd.run(in, &pool), expect);
    expect_q_identical(simd.run_streaming(in, &pool, stream), expect);
  }
}

// The same plan stored with sub-byte branch maps needs a smaller arena
// than its int8 twin: the packed slots are what the planner places.
TEST(PackedBranchMaps, SubByteBranchesShrinkTheArena) {
  const nn::Graph g = odd_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 4)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const PatchPlan plan = odd_plan(g, 2);
  const CompiledPatchQuantModel int8(g, plan, cfg);
  const std::vector<int> four{4};
  const CompiledPatchQuantModel packed(
      g, plan, cfg, random_branch_cfgs(plan, ranges, four, 1));
  EXPECT_LT(packed.arena_bytes(), int8.arena_bytes());
  const nn::Tensor in = random_input(g.shape(0), 6);
  (void)packed.run(in);
  EXPECT_EQ(packed.measured_high_water(), packed.arena_bytes());
}

}  // namespace
}  // namespace qmcu::patch
