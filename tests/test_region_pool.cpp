// Tests for bounds-aware region pooling (patch/region_pool.h) — padding
// must be excluded from pool windows, exactly as in layer-based integer
// execution — and for the row-wise tiled region merge.
#include <gtest/gtest.h>

#include <algorithm>

#include "nn/ops/im2col.h"
#include "nn/ops/int8_kernels.h"
#include "nn/ops/requantize.h"
#include "nn/ops/simd/simd_kernels.h"
#include "nn/rng.h"
#include "patch/region_pool.h"
#include "patch_oracle.h"

namespace qmcu::patch {
namespace {

nn::Layer pool(nn::OpKind kind, int k, int s, int p) {
  nn::Layer l;
  l.kind = kind;
  l.kernel_h = l.kernel_w = k;
  l.stride_h = l.stride_w = s;
  l.pad_h = l.pad_w = p;
  return l;
}

nn::QTensor random_codes(nn::TensorShape s, const nn::QuantParams& p,
                         std::uint64_t seed) {
  nn::QTensor t(s, p);
  nn::Rng rng(seed);
  for (auto& v : t.data()) {
    v = static_cast<std::int8_t>(rng.uniform(p.qmin(), p.qmax() + 1));
  }
  return t;
}

void expect_codes_equal(const nn::QTensor& got, const nn::QTensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < want.data().size(); ++i) {
    ASSERT_EQ(static_cast<int>(got.data()[i]),
              static_cast<int>(want.data()[i]))
        << "element " << i;
  }
}

const nn::QuantParams kParams = nn::choose_quant_params(-2.0f, 2.0f, 8);

TEST(RegionPool, QuantizedMatchesLayerKernel) {
  const nn::QTensor in = random_codes({5, 5, 2}, kParams, 5);
  for (auto kind : {nn::OpKind::MaxPool, nn::OpKind::AvgPool}) {
    SCOPED_TRACE(to_string(kind));
    const nn::Layer l = pool(kind, 3, 2, 1);
    const nn::QTensor dst(
        nn::ops::conv_output_shape(in.shape(), l, in.shape().c), in.params());
    const nn::QTensor ref =
        kind == nn::OpKind::MaxPool
            ? test::value_of(nn::ops::max_pool_q_into, dst, in, l)
            : test::value_of(nn::ops::avg_pool_q_into, dst, in, l,
                             nn::ops::AvgPoolMultipliers(9));
    expect_codes_equal(test::pool_q(in, full_region(in.shape()), l,
                                     full_region(ref.shape()), in.shape()),
                       ref);
  }
}

TEST(RegionPool, AllNegativeWindowKeepsNegativeMax) {
  // The regression this module exists for: a zero-filled crop would make
  // the padded corner max the zero point (real 0) instead of the true
  // negative maximum.
  nn::QTensor in(nn::TensorShape{2, 2, 1}, kParams);
  const auto neg = static_cast<std::int8_t>(kParams.zero_point - 40);
  for (auto& v : in.data()) v = neg;
  const nn::Layer l = pool(nn::OpKind::MaxPool, 3, 1, 1);
  const nn::QTensor got = test::pool_q(in, full_region(in.shape()), l,
                                        Region{{0, 1}, {0, 1}}, in.shape());
  EXPECT_EQ(got.at(0, 0, 0), neg);
}

TEST(RegionPool, AvgDividesByValidCountOnly) {
  nn::QTensor in(nn::TensorShape{2, 2, 1}, kParams);
  for (auto& v : in.data()) v = 40;
  const nn::Layer l = pool(nn::OpKind::AvgPool, 2, 1, 1);
  // Corner window covers one valid element; the mean must be its code, not
  // a quarter-weighted blend with padding.
  const nn::QTensor got = test::pool_q(in, full_region(in.shape()), l,
                                        Region{{0, 1}, {0, 1}}, in.shape());
  EXPECT_EQ(got.at(0, 0, 0), 40);
}

TEST(RegionPool, SubRegionReadsFromRegionTensorOffsets) {
  const nn::QTensor full = random_codes({8, 8, 1}, kParams, 3);
  const nn::Layer l = pool(nn::OpKind::MaxPool, 2, 2, 0);
  const nn::QTensor ref = test::value_of(
      nn::ops::max_pool_q_into, nn::QTensor(nn::TensorShape{4, 4, 1}, kParams),
      full, l);
  // The producer region covers rows/cols 2..8; pool output region 1..4
  // (which reads inputs 2..8) must match the reference slice.
  const Region avail{{2, 8}, {2, 8}};
  nn::QTensor region(nn::TensorShape{6, 6, 1}, kParams);
  for (int y = 0; y < 6; ++y) {
    for (int x = 0; x < 6; ++x) region.at(y, x, 0) = full.at(y + 2, x + 2, 0);
  }
  const Region out_region{{1, 4}, {1, 4}};
  const nn::QTensor got =
      test::pool_q(region, avail, l, out_region, full.shape());
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      ASSERT_EQ(got.at(y, x, 0), ref.at(y + 1, x + 1, 0));
    }
  }
}

TEST(RegionPool, FailsWhenWindowDataMissing) {
  const nn::Layer l = pool(nn::OpKind::MaxPool, 3, 1, 1);
  // Producer region covers only rows 0..2 but output row 2 needs row 3.
  const nn::QTensor region(nn::TensorShape{2, 4, 1}, kParams);
  EXPECT_THROW(test::pool_q(region, Region{{0, 2}, {0, 4}}, l,
                             Region{{2, 3}, {0, 4}}, {4, 4, 1}),
               std::logic_error);
}

TEST(RegionPool, RejectsNonPoolOps) {
  const nn::QTensor in = random_codes({4, 4, 1}, kParams, 6);
  nn::Layer conv;
  conv.kind = nn::OpKind::Conv2D;
  EXPECT_THROW(test::pool_q(in, full_region(in.shape()), conv,
                             Region{{0, 1}, {0, 1}}, in.shape()),
               std::invalid_argument);
}

// The row merges against a per-element reference: identity copy when the
// params match, ElementRequantizer rescale when they differ, through the
// scalar body (null table) and the detected SIMD table. Rows of 5 x 61
// lanes cover the 16-lane, 8-lane and scalar tails and the changed-merge's
// chunking. The compare-before-write form writes the same bytes and
// reports whether any changed.
TEST(RegionMerge, RowMergesMatchPerElementReference) {
  const nn::TensorShape map{9, 11, 61};
  const Region r{{2, 7}, {3, 8}};
  const nn::TensorShape ts{r.y.size(), r.x.size(), map.c};
  nn::Rng rng(515);
  const nn::QuantParams target{0.09f, 4, 8};
  for (const nn::QuantParams& tp :
       {target, nn::QuantParams{0.05f, -9, 8}, nn::QuantParams{0.3f, 1, 4}}) {
    nn::QTensor tile(ts, tp);
    for (std::int8_t& v : tile.data()) {
      v = static_cast<std::int8_t>(rng.uniform(tp.qmin(), tp.qmax() + 1));
    }
    nn::QTensor want(map, target);
    std::fill(want.data().begin(), want.data().end(), std::int8_t{7});
    const nn::ops::ElementRequantizer rq(static_cast<double>(tp.scale) /
                                         static_cast<double>(target.scale));
    for (int y = r.y.begin; y < r.y.end; ++y) {
      for (int x = r.x.begin; x < r.x.end; ++x) {
        for (int c = 0; c < map.c; ++c) {
          const std::int8_t v = tile.at(y - r.y.begin, x - r.x.begin, c);
          want.at(y, x, c) =
              tp == target
                  ? v
                  : static_cast<std::int8_t>(std::clamp(
                        rq.apply(v - tp.zero_point) + target.zero_point,
                        target.qmin(), target.qmax()));
        }
      }
    }
    for (const nn::ops::simd::SimdKernels* table :
         {static_cast<const nn::ops::simd::SimdKernels*>(nullptr),
          nn::ops::simd::kernels()}) {
      nn::QTensor plain(map, target);
      nn::QTensor changed(map, target);
      std::fill(plain.data().begin(), plain.data().end(), std::int8_t{7});
      std::fill(changed.data().begin(), changed.data().end(), std::int8_t{7});
      merge_region_q(tile, r, plain, table);
      EXPECT_TRUE(merge_region_q_changed(tile, r, changed, table));
      EXPECT_FALSE(merge_region_q_changed(tile, r, changed, table));
      for (std::size_t i = 0; i < want.data().size(); ++i) {
        ASSERT_EQ(static_cast<int>(plain.data()[i]),
                  static_cast<int>(want.data()[i]))
            << "element " << i;
        ASSERT_EQ(static_cast<int>(changed.data()[i]),
                  static_cast<int>(want.data()[i]))
            << "element " << i;
      }
    }
  }
}

}  // namespace
}  // namespace qmcu::patch
