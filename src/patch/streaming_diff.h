// streaming_diff.h — frame differencing for temporal patch reuse.
//
// Always-on streaming workloads feed the patch runtime *sequences* of
// frames, and consecutive frames share most of their pixels. Because every
// dataflow branch reads exactly one (clamped) crop of the input image —
// `PatchBranch::steps[0].out_region`, the patch tile plus its receptive-
// field halo — a branch whose crop is byte-identical between two frames
// must produce a byte-identical tile of the assembled cut-layer map, so
// the streaming runtime can skip it and keep the previous frame's bytes.
//
// This module computes which branches are dirty:
//
//   diff_frames     — per-row changed-column hulls between two frames
//                     (byte-exact compare; rows memcmp-equal are clean).
//   affected_branches — dirty-rect → branch mapper: which branches' crops
//                     overlap a changed rectangle.
//   dirty_branches  — the composition: per-branch dirty flags, exact
//                     (byte compare) or tolerance-based (mean |Δ| per crop
//                     ≤ max_region_delta counts as clean).
//
// Exactness contract: the exact mask is *conservative* — a branch whose
// crop contains any changed byte is always flagged (row hulls may flag a
// branch whose crop straddles the hull without containing a changed
// pixel, which costs a recompute, never a wrong skip).
//
// The crc32 helpers (nn/checksum.h) give cheap content fingerprints of
// full tensors, row ranges and regions — the streaming session, tests and
// benches use them to assert that retained bytes really were reused.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.h"
#include "patch/patch_plan.h"
#include "patch/receptive_field.h"

namespace qmcu::patch {

// Byte-exact difference between two equal-shaped frames, summarised per
// input row: `row_spans[y]` is the smallest column interval containing
// every changed pixel of row y (empty = row is byte-identical), `bounds`
// the hull of all changes, `changed_pixels` the exact count of (y, x)
// positions whose channel bytes differ.
struct FrameDiff {
  std::vector<Interval> row_spans;
  Region bounds;
  std::int64_t changed_pixels = 0;

  [[nodiscard]] bool identical() const { return changed_pixels == 0; }
  // Fraction of pixels that changed, in [0, 1].
  [[nodiscard]] double changed_fraction(const nn::TensorShape& s) const {
    const std::int64_t pixels = static_cast<std::int64_t>(s.h) * s.w;
    return pixels == 0 ? 0.0
                       : static_cast<double>(changed_pixels) /
                             static_cast<double>(pixels);
  }
};

FrameDiff diff_frames(const nn::Tensor& prev, const nn::Tensor& cur);

// The clamped input-image crop branch `branch` reads (tile + halo — the
// region its Input step materialises, intersected with the image bounds;
// out-of-bounds halo is synthesized zero padding and can never change).
Region branch_input_region(const PatchPlan& plan, int branch,
                           const nn::TensorShape& input_shape);

// Dirty-rect → affected-branches mapper: indices (row-major branch order)
// of every branch whose clamped input crop overlaps `rect`. An empty rect
// affects no branch.
std::vector<int> affected_branches(const PatchPlan& plan, const Region& rect,
                                   const nn::TensorShape& input_shape);

// Exact mode: flags[b] != 0 iff branch b's clamped input crop overlaps a
// changed row hull of diff_frames(prev, cur) — a conservative superset of
// "contains a changed byte", never a subset.
std::vector<std::uint8_t> dirty_branches(const nn::Tensor& prev,
                                         const nn::Tensor& cur,
                                         const PatchPlan& plan);
// The same mask from an already computed diff_frames of two frames of
// `input_shape` — what a caller that needs the diff anyway passes, so the
// frames are compared once.
std::vector<std::uint8_t> dirty_branches(const FrameDiff& diff,
                                         const PatchPlan& plan,
                                         const nn::TensorShape& input_shape);

// Tolerance mode: a branch overlapping the diff is still clean when the
// mean absolute delta over its clamped crop is <= max_region_delta
// (<= 0 degenerates to the exact mask). Trades bit-exactness for skips.
std::vector<std::uint8_t> dirty_branches(const nn::Tensor& prev,
                                         const nn::Tensor& cur,
                                         const PatchPlan& plan,
                                         float max_region_delta);

// --- content fingerprints (nn::crc32) --------------------------------------

// CRC32 of the full tensor's payload bytes.
std::uint32_t tensor_crc32(const nn::Tensor& t);
std::uint32_t tensor_crc32(const nn::QTensor& t);
// CRC32 of rows [rows.begin, rows.end) — contiguous in HWC layout.
std::uint32_t rows_crc32(const nn::Tensor& t, const Interval& rows);
std::uint32_t rows_crc32(const nn::QTensor& t, const Interval& rows);
// Region fingerprint: per-row-segment CRC32 values FNV-folded together
// (row segments of a region are not contiguous, and nn::crc32 is
// one-shot; the fold is deterministic and compare-stable, which is all a
// fingerprint needs).
std::uint32_t region_crc32(const nn::Tensor& t, const Region& r);
std::uint32_t region_crc32(const nn::QTensor& t, const Region& r);

}  // namespace qmcu::patch
