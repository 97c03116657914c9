// lut_kernels.h — T-MAC-style table-lookup GEMM for sub-byte activations.
//
// The paper's value-driven assignment leaves most layer *inputs* at 2 or 4
// bits while weights stay 8-bit symmetric, so the classic T-MAC orientation
// (tables over weight codes) flips here: the weights are the static side.
// pack_weights_lut builds, per output channel and per k-group, the table of
// partial dot products over every 2^b activation code, and the inner loop
// becomes one table lookup per group instead of a widen -> multiply ->
// accumulate chain per element:
//
//   4-bit: group = 1 input lane,   T[c] = dec4(c) * w[n][g]
//   2-bit: group = 2 input lanes,  T[c] = dec2(c & 3) * w[n][2g]
//                                       + dec2(c >> 2) * w[n][2g + 1]
//
// dec_b is the two's-complement decode of a truncated b-bit field — the
// same round-trip quant/bitpack.h relies on — so for any activation value
// inside the signed b-bit range the lookup reproduces x*w exactly, and the
// whole path is bit-identical to the Reference tier (the zero-point
// correction folds into the per-channel offset exactly as in the GEMM
// path; an odd 2-bit k-tail pads its missing lane with weight 0 and index
// bits 0, both of which contribute nothing).
//
// Table layout is [n][groups][2][16] int8: per (channel, group), 16 low
// bytes then 16 high bytes of the int16 entries — each plane is one
// 16-byte lane for vpshufb/vtbl, reassembled as lo | hi << 8. Entries fit
// int16 (|entry| <= 8 * 128 = 1024 at 4-bit, 2 * 2 * 128 = 512 at 2-bit);
// the vector bodies sum at most kLutChunkGroups tables in int16 before
// widening (16 * 1024 = 16384 < 2^15), so chunked int16 partial sums equal
// the scalar int32 sums exactly for every input.
#pragma once

#include <cstdint>
#include <span>

#include "nn/ops/gemm_int8.h"

namespace qmcu::nn::ops::simd {
struct SimdKernels;
}  // namespace qmcu::nn::ops::simd

namespace qmcu::nn::ops::lut {

// m-lanes per index tile: one vpshufb/vtbl covers 32/16 lanes, and 32 keeps
// the int16 chunk accumulators to four vector registers.
inline constexpr int kLutTileM = 32;
// Bytes per (channel, group) table: a 16-byte low plane + 16-byte high one.
inline constexpr int kLutGroupBytes = 32;
// Max tables summed in int16 before widening to int32 (overflow bound
// above). Shared by the AVX2 and NEON bodies so both match the scalar core.
inline constexpr int kLutChunkGroups = 16;

// Number of k-groups a row of `k` sub-byte lanes folds into. bits must be
// 2 or 4.
int lut_groups(int k, int bits);

// Size in bytes of the pack_weights_lut blob for an [n][k] weight matrix.
std::int64_t lut_table_bytes(int n, int k, int bits);

// Builds the [n][groups][2][16] table blob from row-major [n][k] int8
// weights (the export-time weight recode; baked once at CompiledModel
// construction via KernelBackend::prepack_lut).
void pack_weights_lut(std::span<const std::int8_t> qweights, int n, int k,
                      int bits, std::int8_t* tables);

// Encodes one m-tile of the im2col strip `a` ([rows][k] int8 lanes,
// rows <= kLutTileM) into group-major lookup indices
// idx_t[groups][kLutTileM]. Unused tail lanes are zeroed so the vector
// bodies can always run full-width (index 0 selects a real table entry,
// but rows beyond `rows` are never stored).
void lut_build_index_tile(const std::int8_t* a, int rows, int k, int bits,
                          std::uint8_t* idx_t);

// Scalar LUT-GEMM core: acc[r * n + j] = sum over groups of the table
// entry selected by idx_t[g * kLutTileM + r]. Writes (not accumulates
// into) rows * n int32 lanes. Same contract as the
// SimdKernels::lut_gemm_block vector bodies.
void lut_gemm_block_scalar(const std::uint8_t* idx_t,
                           const std::int8_t* tables, int rows, int n,
                           int groups, std::int32_t* acc);

// LUT analogue of gemm_int8_requant: `a` is the [m][k] im2col strip of
// unpacked sub-byte lanes, `tables` the pack_weights_lut blob. `idx_t`
// must hold lut_groups(k, bits) * kLutTileM bytes and `acc`
// min(m, kLutTileM) * n int32 lanes. Applies the identical GemmQuantPost
// epilogue (the Simd requantizer when available), so outputs are
// bit-identical to the GEMM path on the same strip.
void lut_gemm_requant(const std::int8_t* a, const std::int8_t* tables, int m,
                      int n, int k, int bits, const GemmQuantPost& post,
                      std::uint8_t* idx_t, std::int32_t* acc, std::int8_t* c,
                      const simd::SimdKernels* simd);

enum class LutForce { Auto, On, Off };

// Reads QMCU_FORCE_LUT / QMCU_NO_LUT afresh on every call, like the other
// QMCU_FORCE_* variables, so tests and benches can flip the mode
// mid-process. FORCE wins when both are set.
LutForce lut_force();

// Per-layer dispatch heuristic shared by KernelBackend and the memory
// planner. `m` is the GEMM row count per tile (conv: output row width,
// fc: 1); `cached_panels` whether the backend amortizes table construction
// across calls; `simd` the backend's microkernel table (null = scalar).
// The zero-point range check is an exactness precondition — im2col pads
// with the zero point, which must survive the b-bit encode round-trip —
// and is enforced even under LutForce::On.
bool lut_use(int bits, int zero_point, int n, int k, int m, bool fc,
             bool cached_panels, const simd::SimdKernels* simd);

// Whether the LUT recode for b-bit activations is resident under the
// current force mode: never when forced off, 2-bit in Auto (the only
// width whose table path wins end-to-end with 8-bit weights), and both
// sub-byte widths under QMCU_FORCE_LUT. Gates prepack (compiled models
// bake only tables that can run) and the memory planner's table pricing;
// a later env flip still works through the lazy panel build, it just
// pays table construction on first use.
bool lut_planned(int bits);

}  // namespace qmcu::nn::ops::lut
