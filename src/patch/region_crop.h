// region_crop.h — the row-wise halo crop shared by every patch path.
//
// A crop materialises region `want` of a feature map with full extent
// `full` from a tensor holding region `avail` of it. `want` may reach past
// the map's edges (a convolution's zero padding); those positions take the
// `pad` value. HWC rows are contiguous, so every output row is at most
// three runs — left padding, one in-bounds span read from `have`, right
// padding — and availability is checked once per row: every in-bounds
// element of `want` must lie inside `avail`, or the crop throws rather
// than fabricate data. The source may be a dense map or a bit-packed one
// (patch/packed_map.h), whose span can start mid-byte.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "nn/check.h"
#include "nn/shape.h"
#include "nn/tensor.h"
#include "patch/receptive_field.h"

namespace qmcu::patch {

// The plain span move: n elements copied as bytes.
struct CopySpan {
  template <class Elem>
  void operator()(Elem* dst, const Elem* src, std::int64_t n) const {
    std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(Elem));
  }
};

// Writes region `want` (c channels, dense HWC) into `out`. `read(dst, row,
// first, n)` moves n elements of the source's row `row` (relative to
// avail.y.begin), starting at element `first` of that row, into dst — a
// dense row copy, a requantizing one, or an unpack from a packed map.
template <class Elem, class ReadFn>
void crop_rows_with(const Region& avail, const Region& want,
                    const nn::TensorShape& full, int c, Elem pad, Elem* out,
                    const ReadFn& read) {
  const int x0 = std::max(want.x.begin, 0);
  const int x1 = std::min(want.x.end, full.w);
  const std::int64_t row = static_cast<std::int64_t>(want.x.size()) * c;
  const std::int64_t span =
      x1 > x0 ? static_cast<std::int64_t>(x1 - x0) * c : 0;
  const std::int64_t left =
      span > 0 ? static_cast<std::int64_t>(x0 - want.x.begin) * c : row;
  for (int gy = want.y.begin; gy < want.y.end; ++gy, out += row) {
    if (span == 0 || gy < 0 || gy >= full.h) {
      std::fill_n(out, row, pad);
      continue;
    }
    QMCU_ENSURE(gy >= avail.y.begin && gy < avail.y.end &&
                    x0 >= avail.x.begin && x1 <= avail.x.end,
                "required element missing from available region");
    std::fill_n(out, left, pad);
    read(out + left, gy - avail.y.begin,
         static_cast<std::int64_t>(x0 - avail.x.begin) * c, span);
    std::fill_n(out + left + span, row - left - span, pad);
  }
}

// `have` and `out` are dense HWC buffers of `c` channels covering `avail`
// and `want`. `copy_span(dst, src, n)` moves each in-bounds span of n
// elements (a plain copy, or a requantizing one).
template <class Elem, class SpanFn>
void crop_rows(const Elem* have, const Region& avail, const Region& want,
               const nn::TensorShape& full, int c, Elem pad, Elem* out,
               const SpanFn& copy_span) {
  const std::int64_t have_row = static_cast<std::int64_t>(avail.x.size()) * c;
  crop_rows_with(avail, want, full, c, pad, out,
                 [&](Elem* dst, int y, std::int64_t first, std::int64_t n) {
                   copy_span(dst, have + y * have_row + first, n);
                 });
}

// The tensor-level crops: region `want` of a feature map with full shape
// `full`, from `have` holding region `avail` of it. Padding is 0.0f for a
// float map and the zero point (the quantized encoding of real 0) for a
// quantized one. The `_into` forms write into a caller-bound destination
// (a quantized one carries `have`'s params).
nn::Tensor crop_from_region(const nn::Tensor& have, const Region& avail,
                            const Region& want, const nn::TensorShape& full);
void crop_from_region_into(const nn::Tensor& have, const Region& avail,
                           const Region& want, const nn::TensorShape& full,
                           nn::Tensor& out);
void crop_from_region_q_into(const nn::QTensor& have, const Region& avail,
                             const Region& want, const nn::TensorShape& full,
                             nn::QTensor& out);

}  // namespace qmcu::patch
