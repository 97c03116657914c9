// region_pool.h — bounds-aware pooling over feature-map regions.
//
// Convolution may treat out-of-bounds halo positions as zeros (that is
// what zero padding means), but pooling must *exclude* them: layer-based
// MaxPool never lets padding win the max and AvgPool divides by the valid
// count only. A zero-filled crop would silently change both (e.g. the max
// of an all-negative window). These helpers evaluate pool windows in the
// feature map's global coordinate space, skipping positions outside the
// map, and are the pooling path of the compiled patch model.
#pragma once

#include "nn/graph.h"
#include "nn/ops/int8_kernels.h"
#include "nn/tensor.h"
#include "patch/receptive_field.h"

namespace qmcu::nn::ops::simd {
struct SimdKernels;
}  // namespace qmcu::nn::ops::simd

namespace qmcu::patch {

struct PackedMap;

// Pools `out_region` of layer `l` (MaxPool or AvgPool) from the producer's
// region tensor `have` covering `avail` of a map with full extent `full`,
// into a caller-bound destination sized out_region x channels carrying the
// producer's params. `avg` must cover the layer's kernel window for AvgPool
// (callers cache it per window size) and may be null for MaxPool.
void pool_region_q_into(const nn::QTensor& have, const Region& avail,
                        const nn::Layer& l, const Region& out_region,
                        const nn::TensorShape& full,
                        const nn::ops::AvgPoolMultipliers* avg,
                        nn::QTensor& out);

// --- tiled region merge ----------------------------------------------------
//
// Writes one branch's finished tile into the shared assembled feature map.
// Each call touches exactly the rows/columns of `r` and nothing else, and
// the patch grid partitions the assembled map into disjoint tiles
// (patch_plan.cpp: required[split] is the branch's tile_interval), so
// merges commute: any completion order — sequential, shuffled, or
// concurrent from several workers — produces the identical assembled map.
// This is what lets the parallel patch runtime merge without locks and
// still be bit-identical to the sequential path. The merge copies whole
// tile rows, rescaling the tile into the assembled map's params (row
// memcpy when they already match — uniform mode) through `simd`'s
// requant_i8_row, or the scalar body when it is null.
void merge_region_q(const nn::QTensor& tile, const Region& r,
                    nn::QTensor& assembled,
                    const nn::ops::simd::SimdKernels* simd = nullptr);

// Compare-before-write merge for the streaming runtime: identical to the
// plain merge, but returns whether any assembled byte actually changed (a
// recomputed branch whose tile matches the retained bytes leaves its grid
// row clean, so downstream tail bands can still be skipped). Byte-exact
// compare — merges remain order-independent because rows that would write
// identical bytes write nothing.
bool merge_region_q_changed(const nn::QTensor& tile, const Region& r,
                            nn::QTensor& assembled,
                            const nn::ops::simd::SimdKernels* simd = nullptr);

// Both quantized merges for a tile stored bit-packed (patch/packed_map.h):
// its rows are unpacked a chunk at a time, then copied or rescaled exactly
// as above.
void merge_region_q(const PackedMap& tile, const Region& r,
                    nn::QTensor& assembled,
                    const nn::ops::simd::SimdKernels* simd = nullptr);
bool merge_region_q_changed(const PackedMap& tile, const Region& r,
                            nn::QTensor& assembled,
                            const nn::ops::simd::SimdKernels* simd = nullptr);

}  // namespace qmcu::patch
