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
//                     (NEON; the AVX2 tables run dw_conv_row instead).
//   requant_i8_row  — the ElementRequantizer slice loop of requantize_q:
//                     (src-zp) << left_shift -> fixed-point rescale -> zp
//                     -> clamp.
//   unpack_body     — the whole-byte body of quant::unpack_into for 2/4-bit
//                     packed activations (little-endian fields, sign
//                     extension), feeding the fused sub-byte im2col path.
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
//   dw_conv_row     — a run of depthwise output pixels sharing one clipped
//                     kernel window: every tap accumulated in registers as
//                     the exact int16 product (x - zp) * w (|.| <= 255*128),
//                     widened to int32, then bias -> requantize -> int8.
//                     Interior runs and single border pixels use the same
//                     body; it replaces the per-tap dw_accumulate calls.
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
// time (run_gemm_requant_block in gemm_int8.cpp); a null dw_conv_row runs the
// per-pixel dw_accumulate loop; a null crc32_fold runs slicing-by-16 over
// the whole input.
#pragma once

#include <cstdint>

#include "nn/ops/requantize.h"
#include "nn/quant_params.h"

namespace qmcu::nn::ops::simd {

// A run of `count` depthwise output pixels that share one kernel window
// clipped to kernel rows [ky_lo, ky_lo + taps_h) and columns
// [kx_lo, kx_lo + taps_w). For pixel p and channel ch in [0, c):
//   y[p*c + ch] = clamp(apply_multiplier(bias[ch] + sum over dy < taps_h,
//                 dx < taps_w of (x[p*x_step + dy*x_row + dx*c + ch] - zp)
//                 * w[dy*w_row + dx*c + ch], m) + out_zp, lo, hi)
// with bias[ch] read as 0 when `bias` is null. x points at the first
// pixel's tap (ky_lo, kx_lo) in the NHWC input, w at the same tap of the
// [kh][kw][c] weights. zp must lie in [-128, 127], which keeps every
// (x - zp) * w product inside int16.
struct DwConvRow {
  const std::int8_t* x = nullptr;
  std::int64_t x_row = 0;   // int8 elements between input rows
  std::int64_t x_step = 0;  // int8 elements between neighbouring pixels
  const std::int8_t* w = nullptr;
  int w_row = 0;            // int8 elements between kernel rows
  int taps_h = 0;
  int taps_w = 0;
  const std::int32_t* bias = nullptr;
  int c = 0;
  int count = 0;
  std::int32_t zp = 0;
  FixedPointMultiplier m;
  std::int32_t out_zp = 0;
  std::int32_t lo = -128;
  std::int32_t hi = 127;
  std::int8_t* y = nullptr;
};

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

  // Computes one DwConvRow (below).
  void (*dw_conv_row)(const DwConvRow& row) = nullptr;

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
