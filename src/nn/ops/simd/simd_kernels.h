// simd_kernels.h — the microkernel table behind KernelTier::Simd.
//
// Each entry is one of the hot inner loops of the integer runtime,
// with the *same arithmetic contract as the scalar code it replaces* —
// integer arithmetic is exact, so every function here must be bit-identical
// to its scalar twin for all inputs, not merely close:
//
//   gemm_block_i8   — the 4 x n int8 GEMM accumulator block of
//                     gemm_int8.cpp (k-major packed panel, raw x·w sums;
//                     reordering the k sum is fine, the result is exact).
//   requant_i32_row — the fused GEMM/depthwise epilogue: per-lane
//                     acc (+ offset) -> Q31 fixed-point multiply ->
//                     trunc-division rounding -> rounding shift -> zero
//                     point -> clamp -> int8, exactly apply_multiplier's
//                     rounding sequence.
//   dw_accumulate   — the depthwise channel MAC: acc[i] += (x[i]-zp)*w[i]
//                     (NEON; the AVX2 tables run dw_conv instead).
//   requant_i8_row  — the ElementRequantizer slice loop of requantize_q:
//                     (src-zp) << left_shift -> fixed-point rescale -> zp
//                     -> clamp.
//   unpack_body     — the whole-byte body of quant::unpack_into for 2/4-bit
//                     packed activations (little-endian fields, sign
//                     extension): the packed patch maps' band unpack, halo
//                     crop and merge (patch/packed_map.h).
//   add_row         — the residual Add of add_q_into: both operands
//                     centered and shifted left by 20, each rescaled by its
//                     own Q31 multiplier onto the shared grid, summed,
//                     rescaled into the output params -> zero point ->
//                     clamp, i.e. add_row_scalar's three-multiplier chain
//                     lane for lane.
//   gemm_requant    — the whole GEMM of gemm_int8_requant (all m rows) with
//                     requant_i32_row fused in: the tile's accumulators
//                     take the offset row, the requantize lanes and the
//                     int8 store while still in registers. Each column
//                     tile's weight operands are laid out once per call
//                     (kGemmStripK) and reused by every 4-row block; m == 1
//                     streams the panel, a few k rows per pass, through the
//                     caller's accumulator row. Same gemm_a_bias as the
//                     table's gemm_block_i8.
//   dw_conv         — a whole depthwise conv layer (DwConv below) with the
//                     output stage fused: one call per map, one body for
//                     interior and border pixels, both strides.
//                     dw_pack lays the weights out for it once per layer.
//   crc32_fold      — the whole 16-byte blocks of nn::crc32 (reflected
//                     polynomial 0xEDB88320) by carry-less-multiply
//                     folding; the same remainder as the slicing-by-16
//                     table body, which finishes the tail. Filled only
//                     when cpuid reports pclmul.
//
// The requantize epilogues and add_row vectorize only when every
// multiplier's right shift lies in [0, 31] (vector_shift below); other
// multipliers take the scalar loop for the whole row. The two fused
// entries are exact for every multiplier too (their out-of-range lanes
// spill to apply_multiplier), but their callers send such multipliers down
// the unfused path instead.
//
// The vector SRDHM. For the positive Q31 mantissas quantize_multiplier
// produces, saturating_rounding_doubling_high_mul(x, m) equals the low 32
// bits of (x*m + 2^30) >> 31 for every x. The scalar adds the nudge 2^30
// to non-negative products and 1 - 2^30 to negative ones, then divides by
// 2^31 truncating. A non-negative sum truncates like a floor. A negative
// sum s truncates to floor((s + 2^31 - 1) / 2^31), and
// (1 - 2^30) + (2^31 - 1) = 2^30: the same floor of the same sum. So the
// lanes need no sign compare and no blendv, only two 32x32->64 multiplies,
// two adds, two shifts and a blend.
//
// A table may leave entries null: the NEON tables leave both fused entries
// and crc32_fold null. Callers must check each pointer, falling back to
// the scalar implementation — which is also what the whole table being
// null (no usable ISA, or QMCU_FORCE_SCALAR) means. A null gemm_requant
// runs gemm_block_i8 then requant_i32_row per row, one 4-row block at a
// time (run_gemm_requant_block in gemm_int8.cpp); a null dw_conv runs the
// per-pixel dw_accumulate loop; a null crc32_fold runs slicing-by-16 over
// the whole input.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "nn/ops/requantize.h"
#include "nn/quant_params.h"

namespace qmcu::nn::ops::simd {

// One depthwise conv layer over an NHWC map, output stage fused. For every
// output pixel (oy, ox) and channel ch in [0, c):
//   y[(oy*out_w + ox)*c + ch] = clamp(apply_multiplier(bias[ch] + sum over
//       ky < kernel_h, kx < kernel_w of (X(oy*stride_h + ky - pad_h,
//       ox*stride_w + kx - pad_w, ch) - zp) * w[(ky*kernel_w + kx)*c + ch],
//       m) + out_zp, lo, hi)
// where X(iy, ix, ch) = x[(iy*in_w + ix)*c + ch] inside the input and zp
// outside it (the padding: a missing tap adds exactly 0), and bias[ch] reads
// as 0 when `bias` is null. pad_h / pad_w are the top / left padding; the
// bottom and right padding is whatever the output extent needs. zp must lie
// in [-128, 127], kernel_h * kernel_w <= kDwMaxTaps and
// stride_w <= kDwMaxStride.
//
// How the AVX2 bodies (dw_tiles_avx2.h) compute it:
//   - Lanes. An output row is one flat run of out_w * c lanes (pixel-major,
//     channel-minor), in blocks of 32. The weight pattern repeats every
//     dw_period(c) = lcm(32, c) lanes, so a block is in one of
//     dw_period(c) / 32 phases and every lane does useful work at any c
//     (c = 8 fills all 32 lanes with 4 pixels).
//   - Taps. A madd retires kStep taps of 8 lanes: byte quads for vpdpbusd
//     (VNNI), int16 pairs for vpmaddwd (pair-madd), from kernel columns
//     g * kStep .. g * kStep + kStep - 1 of one kernel row (column group g;
//     columns past kernel_w have zero weights).
//   - Lane order. The unpack ladder that interleaves the taps leaves a
//     block's 32 accumulators in the generation's slot order: runs of four
//     consecutive lanes (VNNI: vector a holds lanes 4a..4a+3 and
//     16+4a..19+4a; pair-madd: 16(a/2)+4(a%2)+{0..3, 8..11}). The offset
//     row and the weights are laid out in the same order, and one dword
//     permute after the int8 packs puts the bytes back in lane order.
//   - Ring. Each padded input row the windows need is built once into
//     `ring` (kernel_h rows): split into stride_w column phases so that
//     column kx of every pixel of an output row is one contiguous run at
//     any stride, then interleaved per column group into the madd operands
//     of every output lane. A block then costs one load and one madd per 8
//     lanes, kernel row and column group, with no shuffle until the output
//     stage.
//   - Offset row. The VNNI body multiplies u8 x s8: the ring holds
//     x ^ 0x80 = x + 128, and every lane starts from
//     bias[ch] - (zp + 128) * wsum[ch] (bias[ch] - zp * wsum[ch] for
//     pair-madd, whose ring holds x), with wsum[ch] the sum of channel ch's
//     taps, just as gemm_a_bias folds into the GEMM's offset row. The row
//     (dw_period(c) lanes) is built into `offset` once per call, since zp
//     differs from call to call (each mixed-precision branch has its own).
//   - Border taps. The padding holds the input zero point, so a tap that
//     falls outside the input adds (zp + 128) * w - (zp + 128) * w = 0
//     (zp * w - zp * w for pair-madd): border and interior pixels run the
//     same body.
//   - Output stage. Q31 rescale per 8 lanes, int16 packs with saturation,
//     out_zp added with int16 saturation, int8 packs, [lo, hi] on bytes.
//     Other multipliers (vector_shift false), |out_zp| > 32640 or a range
//     outside int8 spill to the scalar apply_multiplier.
//   - Weights. `w` is the dw_pack layout: for every block phase, kernel row
//     and column group, four ymm of interleaved weights in slot order.
//   - Alignment. The body starts its ring rows and offset row on 64-byte
//     lines inside the scratch; `w` is best 64-byte aligned too.
// Integer sums are exact in any order, so the result is bit-identical to
// the scalar loop.
struct DwConv {
  const std::int8_t* x = nullptr;  // NHWC input, in_h x in_w x c
  int in_h = 0;
  int in_w = 0;
  int c = 0;
  int kernel_h = 0;
  int kernel_w = 0;
  int stride_h = 1;
  int stride_w = 1;
  int pad_h = 0;
  int pad_w = 0;
  int out_h = 0;
  int out_w = 0;
  const std::int8_t* w = nullptr;      // dw_pack(weights) layout
  const std::int32_t* wsum = nullptr;  // per-channel sum of the taps
  const std::int32_t* bias = nullptr;  // may be null
  std::int32_t zp = 0;
  FixedPointMultiplier m;
  std::int32_t out_zp = 0;
  std::int32_t lo = -128;
  std::int32_t hi = 127;
  std::int8_t* y = nullptr;            // out_h x out_w x c
  std::int8_t* ring = nullptr;         // dw_ring_bytes(*this) scratch
  std::int32_t* offset = nullptr;      // dw_offset_lanes(c) int32 scratch
};

// The largest kernel window dw_conv takes (7 x 7 plus headroom).
inline constexpr int kDwMaxTaps = 64;

// The largest stride_w dw_conv takes.
inline constexpr int kDwMaxStride = 4;

// lcm(32, c): the lane period of the depthwise weight pattern. gcd(32, c)
// is c's lowest set bit, capped at 32.
inline std::int64_t dw_period(int c) {
  const int tz = std::min(5, std::countr_zero(static_cast<unsigned>(c)));
  return static_cast<std::int64_t>(c) << (5 - tz);
}

// DwConv::ring holds one padded input row as stride_w column phases of
// dw_phase_bytes (ceil(padded width / stride_w) pixels plus 32 bytes the
// last block of a row may read past its end), then kernel_h ring rows of
// up to ceil(kernel_w / 2) column groups of dw_group_bytes (4 bytes per
// output lane, lanes rounded up to whole blocks of 32).
inline std::int64_t dw_phase_bytes(const DwConv& p) {
  const std::int64_t padded_w =
      static_cast<std::int64_t>(p.out_w - 1) * p.stride_w + p.kernel_w;
  const std::int64_t phase_w = (padded_w + p.stride_w - 1) / p.stride_w;
  return phase_w * p.c + 32;
}
inline std::int64_t dw_group_bytes(const DwConv& p) {
  return (static_cast<std::int64_t>(p.out_w) * p.c + 31) / 32 * 128;
}
inline std::int64_t dw_ring_bytes(const DwConv& p) {
  // Plus room to start both parts on a cache line.
  return 128 + p.stride_w * dw_phase_bytes(p) +
         static_cast<std::int64_t>(p.kernel_h) * ((p.kernel_w + 1) / 2) *
             dw_group_bytes(p);
}

// The int32 of DwConv::offset: one period, the c + 32 channel-order values
// it is built from, and room to start it on a cache line.
inline std::int64_t dw_offset_lanes(int c) {
  return dw_period(c) + c + 32 + 16;
}

// The largest k whose column-tile operands gemm_requant lays out once per
// call, in a fixed-size stack strip (8 KiB for a 16-column VNNI tile,
// 16 KiB as pair-madd int16 pairs). A larger k reads the panel in place
// for every 4-row block.
inline constexpr int kGemmStripK = 512;

struct SimdKernels {
  const char* name = "none";

  // acc[r*n + j] = sum_k (a[r*k + kk] + gemm_a_bias) * bt[kk*n + j], rows
  // in 1..4. Writes (not accumulates into) rows*n int32 lanes of acc.
  // gemm_a_bias is 0 for every table except the AVX-VNNI generation, whose
  // vpdpbusd multiplies u8 x s8: it biases activations by xor 0x80
  // (a + 128) and the caller folds the -128*Σw correction into the
  // per-column zero-point offset row (gemm_activation_bias() below).
  void (*gemm_block_i8)(const std::int8_t* a, const std::int8_t* bt, int rows,
                        int n, int k, std::int32_t* acc) = nullptr;

  // out[j] = clamp(apply_multiplier(acc[j] + (offset ? offset[j] : 0), m)
  //               + out_zp, lo, hi) as int8. `offset` may be null.
  void (*requant_i32_row)(const std::int32_t* acc, const std::int32_t* offset,
                          int n, FixedPointMultiplier m, std::int32_t out_zp,
                          std::int32_t lo, std::int32_t hi,
                          std::int8_t* out) = nullptr;

  // acc[i] += (x[i] - zp) * w[i] for i in [0, c).
  void (*dw_accumulate)(const std::int8_t* x, const std::int8_t* w, int c,
                        std::int32_t zp, std::int32_t* acc) = nullptr;

  // dst[i] = clamp(apply_multiplier((src[i] - in_zp) << left_shift, m)
  //               + out_zp, lo, hi) for i in [0, n).
  void (*requant_i8_row)(const std::int8_t* src, std::int64_t n,
                         std::int32_t in_zp, int left_shift,
                         FixedPointMultiplier m, std::int32_t out_zp,
                         std::int32_t lo, std::int32_t hi,
                         std::int8_t* dst) = nullptr;

  // Expands a prefix of `nbytes` whole packed bytes (bits = 2 or 4,
  // quant/bitpack.h little-endian field order, two's-complement sign
  // extension) into 8/bits int8 lanes per byte of `dst`. Returns the number
  // of BYTES consumed (a multiple of its vector width; may be 0). The
  // caller finishes the remainder with the scalar loop.
  std::int64_t (*unpack_body)(const std::uint8_t* bytes, std::int64_t nbytes,
                              int bits, std::int8_t* dst) = nullptr;

  // out[i] = add_row_scalar's lane i (nn/ops/requantize.h) for i in
  // [0, n).
  void (*add_row)(const std::int8_t* a, const std::int8_t* b, std::int64_t n,
                  std::int32_t a_zp, std::int32_t b_zp,
                  const AddMultipliers& m, std::int32_t out_zp,
                  std::int32_t lo, std::int32_t hi,
                  std::int8_t* out) = nullptr;

  // out[r*n + j] = clamp(apply_multiplier(sum_k (a[r*k + kk] + gemm_a_bias)
  //                 * bt[kk*n + j] + offset[j], m) + out_zp, lo, hi) as
  // int8 for every row r in [0, rows), rows >= 1: gemm_block_i8 followed
  // by requant_i32_row on each row, without the int32 round trip.
  // `offset` is non-null. `acc` is scratch of at least n int32, written
  // only when rows == 1 (the row-sequential GEMV accumulates there).
  void (*gemm_requant)(const std::int8_t* a, const std::int8_t* bt, int rows,
                       int n, int k, const std::int32_t* offset,
                       FixedPointMultiplier m, std::int32_t out_zp,
                       std::int32_t lo, std::int32_t hi, std::int32_t* acc,
                       std::int8_t* out) = nullptr;

  // Computes one DwConv (above).
  void (*dw_conv)(const DwConv& conv) = nullptr;

  // Lays out kernel_h x kernel_w x c depthwise weights as DwConv::w for
  // this table's dw_conv and returns the byte count; with out == nullptr it
  // only returns the count.
  std::int64_t (*dw_pack)(const std::int8_t* w, int kernel_h, int kernel_w,
                          int c, std::int8_t* out) = nullptr;

  // Advances the raw CRC32 register *state (pre-inverted, nn/checksum.h)
  // over the longest prefix of whole 16-byte blocks of data[0, nbytes) and
  // returns the bytes consumed: 0 when nbytes < 64, otherwise a multiple
  // of 16 of at least 64. The caller finishes the remainder.
  std::int64_t (*crc32_fold)(std::uint32_t* state, const std::uint8_t* data,
                             std::int64_t nbytes) = nullptr;

  // Constant added to every activation lane inside gemm_block_i8 (see its
  // contract above): 128 for the AVX-VNNI generation, 0 everywhere else.
  std::int32_t gemm_a_bias = 0;

  // True when gemm_block_i8 is a dot-product generation (vpdpbusd / sdot)
  // — what the artifact's kernel fingerprint and the dot bench counters
  // key on.
  bool gemm_dot = false;

  // The dw_conv body's name ("pair-madd", "vnni-quad"); null with dw_conv.
  const char* dw_body = nullptr;
};

// The activation bias the *selected* GEMM block applies: the table's
// gemm_a_bias when its gemm_block_i8 entry will run, 0 when the scalar
// fallback runs instead. Callers building the per-column offset row must
// subtract (zero_point + this) * wsum[j] for bit-exactness.
inline std::int32_t gemm_activation_bias(const SimdKernels* simd) {
  return (simd != nullptr && simd->gemm_block_i8 != nullptr)
             ? simd->gemm_a_bias
             : 0;
}

// Whether the vector requantize lanes cover `m`: their rounding shift
// handles right_shift in [0, 31]; other multipliers take the scalar
// apply_multiplier path.
inline bool vector_shift(const FixedPointMultiplier& m) {
  return m.right_shift >= 0 && m.right_shift <= 31;
}

// Row dispatch for callers that hold a table pointer: the table's entry
// when there is one, the scalar body of requantize.h otherwise (a null
// table included).
inline void run_requant_i8_row(const SimdKernels* simd,
                               const std::int8_t* src, std::int64_t n,
                               std::int32_t in_zp, int left_shift,
                               FixedPointMultiplier m, std::int32_t out_zp,
                               std::int32_t lo, std::int32_t hi,
                               std::int8_t* dst) {
  if (simd != nullptr && simd->requant_i8_row != nullptr) {
    simd->requant_i8_row(src, n, in_zp, left_shift, m, out_zp, lo, hi, dst);
  } else {
    requant_i8_row_scalar(src, n, in_zp, left_shift, m, out_zp, lo, hi, dst);
  }
}

// Rescales int8 rows from `from` into `to` params: requantize_q_into's
// ElementRequantizer chain and [qmin, qmax] clamp, through `simd`'s
// requant_i8_row (the scalar body when null). Shared by the tile merges and
// the quantized input tile so every row rescale rounds the same way.
class RowRequantizer {
 public:
  RowRequantizer(const QuantParams& from, const QuantParams& to,
                 const SimdKernels* simd)
      : rq_(static_cast<double>(from.scale) / static_cast<double>(to.scale)),
        in_zp_(from.zero_point),
        out_zp_(to.zero_point),
        lo_(to.qmin()),
        hi_(to.qmax()),
        simd_(simd) {}

  void operator()(std::int8_t* dst, const std::int8_t* src,
                  std::int64_t n) const {
    run_requant_i8_row(simd_, src, n, in_zp_, rq_.left_shift(),
                       rq_.multiplier(), out_zp_, lo_, hi_, dst);
  }

 private:
  ElementRequantizer rq_;
  std::int32_t in_zp_;
  std::int32_t out_zp_;
  std::int32_t lo_;
  std::int32_t hi_;
  const SimdKernels* simd_;
};

inline void run_add_row(const SimdKernels* simd, const std::int8_t* a,
                        const std::int8_t* b, std::int64_t n,
                        std::int32_t a_zp, std::int32_t b_zp,
                        const AddMultipliers& m, std::int32_t out_zp,
                        std::int32_t lo, std::int32_t hi, std::int8_t* out) {
  if (simd != nullptr && simd->add_row != nullptr) {
    simd->add_row(a, b, n, a_zp, b_zp, m, out_zp, lo, hi, out);
  } else {
    add_row_scalar(a, b, n, a_zp, b_zp, m, out_zp, lo, hi, out);
  }
}

// The table for detected_isa(), or nullptr when scalar (Isa::None; also
// under QMCU_FORCE_SCALAR). When the CPU has a dot-product generation and
// QMCU_FORCE_NO_DOT is unset, the matching dot table is returned instead
// of the base pair-madd table. Both variables are read on every call, so
// backends constructed after a setenv() see the change.
const SimdKernels* kernels();

// Per-ISA tables (null when this binary was not built for that ISA).
// Exposed for the dispatcher and for tests that pin a table directly.
const SimdKernels* avx2_kernels();
const SimdKernels* neon_kernels();

// Dot-product generations: the base table with gemm_block_i8 swapped for
// the fused multiply-reduce kernel (null when the base table is null or
// the dot TU was compiled out).
const SimdKernels* avx2_vnni_kernels();
const SimdKernels* neon_dot_kernels();

// The PCLMULQDQ folding body for SimdKernels::crc32_fold, or null when the
// CPU lacks pclmul or its TU was compiled out (crc32_pclmul.cpp).
decltype(SimdKernels::crc32_fold) crc32_fold_pclmul();

}  // namespace qmcu::nn::ops::simd
