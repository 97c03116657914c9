// Region crops (patch/region_crop.h) in the float domain: the VDPC/VDQS
// planners profile each branch step's map as a crop of the layer-based
// float map, so a crop must zero-fill padding and refuse to fabricate rows
// its source region does not hold. Patch inference itself is integer-only;
// its bit-exactness against layer-based inference is covered by
// test_patch_quant_executor.cpp.
#include <gtest/gtest.h>

#include "patch/region_crop.h"

namespace qmcu::patch {
namespace {

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
