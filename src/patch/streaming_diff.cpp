#include "patch/streaming_diff.h"

#include <cmath>
#include <cstring>

#include "nn/check.h"
#include "nn/checksum.h"
#include "nn/shape.h"

namespace qmcu::patch {

namespace {

// First/last pixel of the row whose channel bytes differ, as a half-open
// column interval ({0,0} when the rows are byte-identical — callers check
// with memcmp first, so this only runs on rows known to differ).
Interval row_changed_span(const float* a, const float* b, int w, int c,
                          std::int64_t& changed_pixels) {
  int first = -1;
  int last = -1;
  for (int x = 0; x < w; ++x) {
    if (std::memcmp(a + static_cast<std::ptrdiff_t>(x) * c,
                    b + static_cast<std::ptrdiff_t>(x) * c,
                    static_cast<std::size_t>(c) * sizeof(float)) != 0) {
      if (first < 0) first = x;
      last = x;
      ++changed_pixels;
    }
  }
  if (first < 0) return {};
  return {first, last + 1};
}

}  // namespace

FrameDiff diff_frames(const nn::Tensor& prev, const nn::Tensor& cur) {
  QMCU_REQUIRE(prev.shape() == cur.shape(),
               "diff_frames: frames must have identical shapes");
  const nn::TensorShape& s = cur.shape();
  const std::int64_t row_elems = static_cast<std::int64_t>(s.w) * s.c;
  const float* a = prev.data().data();
  const float* b = cur.data().data();

  FrameDiff d;
  d.row_spans.resize(static_cast<std::size_t>(s.h));
  for (int y = 0; y < s.h; ++y) {
    const float* ra = a + y * row_elems;
    const float* rb = b + y * row_elems;
    // Fast path: most rows of a mostly-static frame are byte-identical.
    if (std::memcmp(ra, rb,
                    static_cast<std::size_t>(row_elems) * sizeof(float)) == 0) {
      continue;
    }
    const Interval span = row_changed_span(ra, rb, s.w, s.c, d.changed_pixels);
    d.row_spans[static_cast<std::size_t>(y)] = span;
    if (!span.empty()) {
      d.bounds.y = unite(d.bounds.y, Interval{y, y + 1});
      d.bounds.x = unite(d.bounds.x, span);
    }
  }
  return d;
}

Region branch_input_region(const PatchPlan& plan, int branch,
                           const nn::TensorShape& input_shape) {
  const PatchBranch& b = plan.branches[static_cast<std::size_t>(branch)];
  const Region& crop = b.steps.front().out_region;
  return {clamp(crop.y, 0, input_shape.h), clamp(crop.x, 0, input_shape.w)};
}

namespace {

constexpr bool regions_overlap(const Region& a, const Region& b) {
  return a.y.begin < b.y.end && b.y.begin < a.y.end && a.x.begin < b.x.end &&
         b.x.begin < a.x.end;
}

}  // namespace

std::vector<int> affected_branches(const PatchPlan& plan, const Region& rect,
                                   const nn::TensorShape& input_shape) {
  std::vector<int> hit;
  if (rect.empty()) return hit;
  for (int b = 0; b < static_cast<int>(plan.branches.size()); ++b) {
    if (regions_overlap(branch_input_region(plan, b, input_shape), rect)) {
      hit.push_back(b);
    }
  }
  return hit;
}

std::vector<std::uint8_t> dirty_branches(const nn::Tensor& prev,
                                         const nn::Tensor& cur,
                                         const PatchPlan& plan) {
  return dirty_branches(diff_frames(prev, cur), plan, cur.shape());
}

std::vector<std::uint8_t> dirty_branches(const FrameDiff& d,
                                         const PatchPlan& plan,
                                         const nn::TensorShape& input_shape) {
  std::vector<std::uint8_t> dirty(plan.branches.size(), 0);
  if (d.identical()) return dirty;
  for (std::size_t b = 0; b < plan.branches.size(); ++b) {
    const Region r =
        branch_input_region(plan, static_cast<int>(b), input_shape);
    for (int y = std::max(r.y.begin, d.bounds.y.begin);
         y < std::min(r.y.end, d.bounds.y.end); ++y) {
      const Interval& span = d.row_spans[static_cast<std::size_t>(y)];
      if (span.empty()) continue;
      if (r.x.begin < span.end && span.begin < r.x.end) {
        dirty[b] = 1;
        break;
      }
    }
  }
  return dirty;
}

std::vector<std::uint8_t> dirty_branches(const nn::Tensor& prev,
                                         const nn::Tensor& cur,
                                         const PatchPlan& plan,
                                         float max_region_delta) {
  std::vector<std::uint8_t> dirty = dirty_branches(prev, cur, plan);
  if (max_region_delta <= 0.0f) return dirty;
  const nn::TensorShape& s = cur.shape();
  const float* a = prev.data().data();
  const float* b = cur.data().data();
  for (std::size_t bi = 0; bi < dirty.size(); ++bi) {
    if (!dirty[bi]) continue;  // exactness already says clean
    const Region r = branch_input_region(plan, static_cast<int>(bi), s);
    double sum = 0.0;
    for (int y = r.y.begin; y < r.y.end; ++y) {
      for (int x = r.x.begin; x < r.x.end; ++x) {
        const std::int64_t at = nn::flat_index(s, y, x, 0);
        for (int ch = 0; ch < s.c; ++ch) {
          sum += std::fabs(static_cast<double>(a[at + ch]) -
                           static_cast<double>(b[at + ch]));
        }
      }
    }
    const double count = static_cast<double>(r.area()) * s.c;
    if (count > 0.0 && sum / count <= static_cast<double>(max_region_delta)) {
      dirty[bi] = 0;
    }
  }
  return dirty;
}

// --- content fingerprints ---------------------------------------------------

namespace {

template <class T>
std::uint32_t rows_crc_impl(const T& t, const Interval& rows) {
  const nn::TensorShape& s = t.shape();
  QMCU_REQUIRE(rows.begin >= 0 && rows.end <= s.h && !rows.empty(),
               "rows_crc32: row interval out of bounds");
  const std::int64_t stride = static_cast<std::int64_t>(s.w) * s.c;
  const auto span = t.data();
  return nn::crc32(span.data() + rows.begin * stride,
                   static_cast<std::size_t>(rows.size() * stride) *
                       sizeof(span[0]));
}

template <class T>
std::uint32_t region_crc_impl(const T& t, const Region& r) {
  const nn::TensorShape& s = t.shape();
  QMCU_REQUIRE(r.y.begin >= 0 && r.y.end <= s.h && r.x.begin >= 0 &&
                   r.x.end <= s.w,
               "region_crc32: region out of bounds");
  const auto span = t.data();
  std::uint32_t acc = 2166136261u;  // FNV offset basis
  for (int y = r.y.begin; y < r.y.end; ++y) {
    const std::uint32_t row = nn::crc32(
        span.data() + nn::flat_index(s, y, r.x.begin, 0),
        static_cast<std::size_t>(r.x.size()) * static_cast<std::size_t>(s.c) *
            sizeof(span[0]));
    acc = (acc ^ row) * 16777619u;  // FNV-1a fold of the per-row CRCs
  }
  return acc;
}

}  // namespace

std::uint32_t tensor_crc32(const nn::Tensor& t) {
  return nn::crc32(t.data().data(), t.data().size() * sizeof(float));
}

std::uint32_t tensor_crc32(const nn::QTensor& t) {
  return nn::crc32(t.data().data(), t.data().size());
}

std::uint32_t rows_crc32(const nn::Tensor& t, const Interval& rows) {
  return rows_crc_impl(t, rows);
}

std::uint32_t rows_crc32(const nn::QTensor& t, const Interval& rows) {
  return rows_crc_impl(t, rows);
}

std::uint32_t region_crc32(const nn::Tensor& t, const Region& r) {
  return region_crc_impl(t, r);
}

std::uint32_t region_crc32(const nn::QTensor& t, const Region& r) {
  return region_crc_impl(t, r);
}

}  // namespace qmcu::patch
