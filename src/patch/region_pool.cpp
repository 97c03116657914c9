#include "patch/region_pool.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "nn/ops/int8_kernels.h"
#include "nn/ops/requantize.h"
#include "nn/ops/simd/simd_kernels.h"
#include "patch/packed_map.h"
#include "patch/region_crop.h"

namespace qmcu::patch {

namespace {

// Iterates the valid (in-bounds) window positions of one output element,
// asserting each is present in the available region.
template <typename Fn>
void for_each_valid(const Region& avail, const nn::Layer& l, int gy, int gx,
                    const nn::TensorShape& full, const Fn& fn) {
  const int iy0 = gy * l.stride_h - l.pad_h;
  const int ix0 = gx * l.stride_w - l.pad_w;
  for (int ky = 0; ky < l.kernel_h; ++ky) {
    const int iy = iy0 + ky;
    if (iy < 0 || iy >= full.h) continue;
    for (int kx = 0; kx < l.kernel_w; ++kx) {
      const int ix = ix0 + kx;
      if (ix < 0 || ix >= full.w) continue;
      QMCU_ENSURE(iy >= avail.y.begin && iy < avail.y.end &&
                      ix >= avail.x.begin && ix < avail.x.end,
                  "pool window element missing from region");
      fn(iy - avail.y.begin, ix - avail.x.begin);
    }
  }
}

void check_kind(const nn::Layer& l) {
  QMCU_REQUIRE(l.kind == nn::OpKind::MaxPool || l.kind == nn::OpKind::AvgPool,
               "region pooling handles MaxPool/AvgPool only");
}

}  // namespace

void pool_region_q_into(const nn::QTensor& have, const Region& avail,
                        const nn::Layer& l, const Region& out_region,
                        const nn::TensorShape& full,
                        const nn::ops::AvgPoolMultipliers* avg,
                        nn::QTensor& out) {
  check_kind(l);
  const bool is_max = l.kind == nn::OpKind::MaxPool;
  QMCU_REQUIRE(is_max || avg != nullptr,
               "pool_region_q: AvgPool needs a multiplier table");
  const nn::QuantParams& p = have.params();
  QMCU_REQUIRE(out.shape() == nn::TensorShape(out_region.y.size(),
                                              out_region.x.size(),
                                              have.shape().c),
               "pool_region_q: destination shape mismatch");
  QMCU_REQUIRE(out.params() == p, "pool_region_q: pools keep input params");
  for (int gy = out_region.y.begin; gy < out_region.y.end; ++gy) {
    for (int gx = out_region.x.begin; gx < out_region.x.end; ++gx) {
      for (int c = 0; c < have.shape().c; ++c) {
        std::int32_t best = std::numeric_limits<std::int32_t>::min();
        std::int32_t sum = 0;
        std::int32_t count = 0;
        for_each_valid(avail, l, gy, gx, full, [&](int y, int x) {
          const std::int32_t v = have.at(y, x, c);
          best = std::max(best, v);
          sum += v;
          ++count;
        });
        std::int32_t q;
        if (is_max) {
          q = best;
        } else {
          // Shared fixed-point mean: identical rounding to
          // nn::ops::avg_pool_q_into by construction.
          q = count > 0 ? avg->average(sum, count) : p.zero_point;
          q = std::clamp(q, p.qmin(), p.qmax());
        }
        out.at(gy - out_region.y.begin, gx - out_region.x.begin, c) =
            static_cast<std::int8_t>(q);
      }
    }
  }
}

namespace {

void check_merge(const nn::TensorShape& tile, const Region& r,
                 const nn::TensorShape& assembled) {
  QMCU_REQUIRE(tile == nn::TensorShape(r.y.size(), r.x.size(), assembled.c),
               "merge_region: tile does not cover its region");
  QMCU_REQUIRE(r.y.begin >= 0 && r.y.end <= assembled.h && r.x.begin >= 0 &&
                   r.x.end <= assembled.w,
               "merge_region: region exceeds the assembled map");
}

// Calls row_fn(dst, src, n) for each row of the tile: a region row is
// contiguous (n elements) in both the tile and the assembled map.
template <class RowFn>
void for_each_merge_row(const nn::QTensor& tile, const Region& r,
                        nn::QTensor& assembled, const RowFn& row_fn) {
  check_merge(tile.shape(), r, assembled.shape());
  const std::int64_t n =
      static_cast<std::int64_t>(r.x.size()) * assembled.shape().c;
  for (int y = r.y.begin; y < r.y.end; ++y) {
    row_fn(assembled.data().data() +
               nn::flat_index(assembled.shape(), y, r.x.begin, 0),
           tile.data().data() + (y - r.y.begin) * n, n);
  }
}

// Rows are rescaled through a stack buffer this many elements at a time.
constexpr std::int64_t kChunk = 256;

// for_each_merge_row for a packed tile: row_fn(dst, src, n) over each tile
// row a chunk at a time, `src` unpacked into a stack buffer.
template <class RowFn>
void for_each_packed_merge_chunk(const PackedMap& tile, const Region& r,
                                 nn::QTensor& assembled,
                                 const nn::ops::simd::SimdKernels* simd,
                                 const RowFn& row_fn) {
  const nn::TensorShape& as = assembled.shape();
  check_merge(tile.shape, r, as);
  std::int8_t buf[kChunk];
  const std::int64_t n = tile.row_elements();
  for (int y = r.y.begin; y < r.y.end; ++y) {
    std::int8_t* dst =
        assembled.data().data() + nn::flat_index(as, y, r.x.begin, 0);
    for (std::int64_t i = 0; i < n; i += kChunk) {
      const std::int64_t len = std::min(kChunk, n - i);
      tile.unpack(y - r.y.begin, i, len, buf, simd);
      row_fn(dst + i, buf, len);
    }
  }
}

// Compare-before-write row copy, recording whether any byte changed.
struct CopyIfChanged {
  bool& changed;
  void operator()(std::int8_t* dst, const std::int8_t* src,
                  std::int64_t n) const {
    const auto bytes = static_cast<std::size_t>(n);
    if (std::memcmp(dst, src, bytes) == 0) return;
    std::memcpy(dst, src, bytes);
    changed = true;
  }
};

}  // namespace

void merge_region_q(const nn::QTensor& tile, const Region& r,
                    nn::QTensor& assembled,
                    const nn::ops::simd::SimdKernels* simd) {
  if (tile.params() == assembled.params()) {
    for_each_merge_row(tile, r, assembled, CopySpan{});
    return;
  }
  // Mixed mode: each element rescaled exactly as requantize_q would.
  for_each_merge_row(tile, r, assembled,
                     nn::ops::simd::RowRequantizer(tile.params(),
                                                   assembled.params(), simd));
}

bool merge_region_q_changed(const nn::QTensor& tile, const Region& r,
                            nn::QTensor& assembled,
                            const nn::ops::simd::SimdKernels* simd) {
  bool changed = false;
  const CopyIfChanged copy{changed};
  if (tile.params() == assembled.params()) {
    for_each_merge_row(tile, r, assembled, copy);
    return changed;
  }
  // Requantize a chunk of the row into a local buffer, then compare and
  // copy it like the identity path.
  const nn::ops::simd::RowRequantizer requant(tile.params(),
                                              assembled.params(), simd);
  for_each_merge_row(
      tile, r, assembled,
      [&](std::int8_t* dst, const std::int8_t* src, std::int64_t n) {
        std::int8_t buf[kChunk];
        for (std::int64_t i = 0; i < n; i += kChunk) {
          const std::int64_t len = std::min(kChunk, n - i);
          requant(buf, src + i, len);
          copy(dst + i, buf, len);
        }
      });
  return changed;
}

void merge_region_q(const PackedMap& tile, const Region& r,
                    nn::QTensor& assembled,
                    const nn::ops::simd::SimdKernels* simd) {
  if (tile.params == assembled.params()) {
    for_each_packed_merge_chunk(tile, r, assembled, simd, CopySpan{});
    return;
  }
  for_each_packed_merge_chunk(
      tile, r, assembled, simd,
      nn::ops::simd::RowRequantizer(tile.params, assembled.params(), simd));
}

bool merge_region_q_changed(const PackedMap& tile, const Region& r,
                            nn::QTensor& assembled,
                            const nn::ops::simd::SimdKernels* simd) {
  bool changed = false;
  const CopyIfChanged copy{changed};
  if (tile.params == assembled.params()) {
    for_each_packed_merge_chunk(tile, r, assembled, simd, copy);
    return changed;
  }
  const nn::ops::simd::RowRequantizer requant(tile.params, assembled.params(),
                                              simd);
  for_each_packed_merge_chunk(
      tile, r, assembled, simd,
      [&](std::int8_t* dst, const std::int8_t* src, std::int64_t n) {
        std::int8_t buf[kChunk];
        requant(buf, src, n);
        copy(dst, buf, n);
      });
  return changed;
}

}  // namespace qmcu::patch
