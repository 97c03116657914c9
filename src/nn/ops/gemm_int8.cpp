#include "nn/ops/gemm_int8.h"

#include <algorithm>
#include <cstring>

#include "nn/ops/float_kernels.h"
#include "nn/ops/simd/simd_kernels.h"

namespace qmcu::nn::ops {

namespace {

// Tile edge of the blocked transpose: 16 int8 is one destination row's
// span per tile, 16 source rows fit L1 comfortably for both element types.
constexpr int kPackTile = 16;

template <typename T>
void pack_kmajor_blocked(const T* b, int n, int k, T* bt) {
  for (int r0 = 0; r0 < n; r0 += kPackTile) {
    const int r1 = std::min(r0 + kPackTile, n);
    for (int k0 = 0; k0 < k; k0 += kPackTile) {
      const int k1 = std::min(k0 + kPackTile, k);
      for (int row = r0; row < r1; ++row) {
        const T* src = b + static_cast<std::size_t>(row) * k;
        for (int kk = k0; kk < k1; ++kk) {
          bt[static_cast<std::size_t>(kk) * n + row] = src[kk];
        }
      }
    }
  }
}

}  // namespace

void pack_weights_kmajor(std::span<const std::int8_t> b, int n, int k,
                         std::int8_t* bt) {
  pack_kmajor_blocked(b.data(), n, k, bt);
}

void pack_weights_kmajor_f32(std::span<const float> b, int n, int k,
                             float* bt) {
  pack_kmajor_blocked(b.data(), n, k, bt);
}

void weight_column_sums(std::span<const std::int8_t> b, int n, int k,
                        std::int32_t* wsum) {
  for (int row = 0; row < n; ++row) {
    const std::int8_t* src = b.data() + static_cast<std::size_t>(row) * k;
    std::int32_t s = 0;
    for (int kk = 0; kk < k; ++kk) s += src[kk];
    wsum[row] = s;
  }
}

namespace {

// Width of the register tile along n. 16 int32 lanes is one AVX-512
// register (two NEON/SSE pairs on narrower machines) and small enough that
// the 4 x kNTile accumulator block stays in registers across the k loop.
constexpr int kNTile = 16;

// Accumulates `rows` (1..4) A rows against the whole Bt panel into `acc`
// (rows * n int32). The panel is walked in kNTile-wide column strips; each
// strip's accumulators are fixed-size locals, so the compiler sees them as
// non-aliased registers and fully unrolls the tile loops — the versioned
// runtime aliasing checks a pointer-based accumulator would force on every
// k iteration disappear entirely.
void gemm_block_i8(const std::int8_t* __restrict a,
                   const std::int8_t* __restrict bt, int rows, int n, int k,
                   std::int32_t* __restrict acc) {
  const std::int8_t* a0 = a;
  const std::int8_t* a1 = a + k;
  const std::int8_t* a2 = a + 2 * static_cast<std::size_t>(k);
  const std::int8_t* a3 = a + 3 * static_cast<std::size_t>(k);
  for (int j0 = 0; j0 < n; j0 += kNTile) {
    const int jn = std::min(kNTile, n - j0);
    if (rows == 4 && jn == kNTile) {
      std::int32_t t0[kNTile] = {0};
      std::int32_t t1[kNTile] = {0};
      std::int32_t t2[kNTile] = {0};
      std::int32_t t3[kNTile] = {0};
      const std::int8_t* bp = bt + j0;
      for (int kk = 0; kk < k; ++kk, bp += n) {
        const std::int32_t v0 = a0[kk];
        const std::int32_t v1 = a1[kk];
        const std::int32_t v2 = a2[kk];
        const std::int32_t v3 = a3[kk];
        for (int j = 0; j < kNTile; ++j) {
          const std::int32_t w = bp[j];
          t0[j] += v0 * w;
          t1[j] += v1 * w;
          t2[j] += v2 * w;
          t3[j] += v3 * w;
        }
      }
      for (int j = 0; j < kNTile; ++j) {
        acc[j0 + j] = t0[j];
        acc[n + j0 + j] = t1[j];
        acc[2 * n + j0 + j] = t2[j];
        acc[3 * n + j0 + j] = t3[j];
      }
      continue;
    }
    for (int r = 0; r < rows; ++r) {
      std::int32_t t[kNTile] = {0};
      const std::int8_t* ar = a + static_cast<std::size_t>(r) * k;
      const std::int8_t* bp = bt + j0;
      for (int kk = 0; kk < k; ++kk, bp += n) {
        const std::int32_t v = ar[kk];
        for (int j = 0; j < jn; ++j) t[j] += v * bp[j];
      }
      for (int j = 0; j < jn; ++j) {
        acc[static_cast<std::size_t>(r) * n + j0 + j] = t[j];
      }
    }
  }
}

// Eight float lanes in a GCC/Clang vector type, lowered to whatever vector
// unit the target has (one AVX register, two SSE or NEON registers).
// Lane-wise `c += a * w` is one multiply and one add per lane, in that
// order, as in the scalar loop: this TU is built with -ffp-contract=off.
using F32x8 = float __attribute__((vector_size(32)));
constexpr int kF32Lanes = static_cast<int>(sizeof(F32x8) / sizeof(float));

F32x8 load_f32x8(const float* p) {
  F32x8 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store_f32x8(float* p, F32x8 v) { std::memcpy(p, &v, sizeof(v)); }

// Four A rows against `V` vectors of columns starting at j: 4·V
// accumulators stay in registers for the whole k loop, so each weight
// vector loaded serves four rows and no accumulator goes through memory
// per k step.
template <int V>
void gemm_tile_f32(const float* __restrict a, const float* __restrict bt,
                   int n, int k, int j, float* __restrict acc) {
  F32x8 c[4][V];
  for (int r = 0; r < 4; ++r) {
    for (int v = 0; v < V; ++v) {
      c[r][v] = load_f32x8(acc + static_cast<std::size_t>(r) * n + j +
                           v * kF32Lanes);
    }
  }
  const float* a_rows[4] = {a, a + k, a + 2 * static_cast<std::size_t>(k),
                            a + 3 * static_cast<std::size_t>(k)};
  for (int kk = 0; kk < k; ++kk) {
    const float* bp = bt + static_cast<std::size_t>(kk) * n + j;
    F32x8 w[V];
    for (int v = 0; v < V; ++v) w[v] = load_f32x8(bp + v * kF32Lanes);
    for (int r = 0; r < 4; ++r) {
      const float x = a_rows[r][kk];
      for (int v = 0; v < V; ++v) c[r][v] += x * w[v];
    }
  }
  for (int r = 0; r < 4; ++r) {
    for (int v = 0; v < V; ++v) {
      store_f32x8(acc + static_cast<std::size_t>(r) * n + j + v * kF32Lanes,
                  c[r][v]);
    }
  }
}

// Unlike the integer block, `acc` arrives pre-seeded with the bias so the
// per-output accumulation order (bias first, then ascending k) matches the
// reference float kernels bit-for-bit. Full four-row blocks run register
// tiles of 16 and then 8 columns; the remaining columns and short row
// blocks keep the pointer-row loops. The __restrict parameters make the
// accumulator rows provably disjoint from the operands, so no versioned
// aliasing checks survive. Column tiling and row regrouping never reorder
// a single output's own sum.
void gemm_block_f32(const float* __restrict a, const float* __restrict bt,
                    int rows, int n, int k, float* __restrict acc) {
  if (rows == 4) {
    int j = 0;
    for (; j + 2 * kF32Lanes <= n; j += 2 * kF32Lanes) {
      gemm_tile_f32<2>(a, bt, n, k, j, acc);
    }
    for (; j + kF32Lanes <= n; j += kF32Lanes) {
      gemm_tile_f32<1>(a, bt, n, k, j, acc);
    }
    if (j == n) return;
    const float* a0 = a;
    const float* a1 = a + k;
    const float* a2 = a + 2 * static_cast<std::size_t>(k);
    const float* a3 = a + 3 * static_cast<std::size_t>(k);
    float* c0 = acc;
    float* c1 = acc + n;
    float* c2 = acc + 2 * static_cast<std::size_t>(n);
    float* c3 = acc + 3 * static_cast<std::size_t>(n);
    for (int kk = 0; kk < k; ++kk) {
      const float v0 = a0[kk];
      const float v1 = a1[kk];
      const float v2 = a2[kk];
      const float v3 = a3[kk];
      const float* bp = bt + static_cast<std::size_t>(kk) * n;
      for (int jj = j; jj < n; ++jj) {
        const float w = bp[jj];
        c0[jj] += v0 * w;
        c1[jj] += v1 * w;
        c2[jj] += v2 * w;
        c3[jj] += v3 * w;
      }
    }
    return;
  }
  for (int r = 0; r < rows; ++r) {
    const float* ar = a + static_cast<std::size_t>(r) * k;
    float* cr = acc + static_cast<std::size_t>(r) * n;
    for (int kk = 0; kk < k; ++kk) {
      const float v = ar[kk];
      const float* bp = bt + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) cr[j] += v * bp[j];
    }
  }
}

// One block of 1..4 A rows without the fused entry: the accumulator block
// (the table's, or the scalar one) writes `acc` and each row is
// requantized on its own — the table's requant_i32_row when it has one.
void run_gemm_requant_block(const simd::SimdKernels* simd,
                            const std::int8_t* a, const std::int8_t* bt,
                            int rows, int n, int k, const GemmQuantPost& post,
                            std::int32_t* acc, std::int8_t* c) {
  const auto block = (simd != nullptr && simd->gemm_block_i8 != nullptr)
                         ? simd->gemm_block_i8
                         : &gemm_block_i8;
  const auto requant_row =
      (simd != nullptr) ? simd->requant_i32_row : nullptr;
  block(a, bt, rows, n, k, acc);
  for (int r = 0; r < rows; ++r) {
    const std::int32_t* row = acc + static_cast<std::size_t>(r) * n;
    std::int8_t* out = c + static_cast<std::size_t>(r) * n;
    if (requant_row != nullptr) {
      requant_row(row, post.offset, n, post.multiplier, post.output_zp,
                  post.act_lo, post.act_hi, out);
      continue;
    }
    for (int j = 0; j < n; ++j) {
      const std::int32_t total = row[j] + post.offset[j];
      const std::int32_t q =
          clamp_to(apply_multiplier(total, post.multiplier) + post.output_zp,
                   post.act_lo, post.act_hi);
      out[j] = static_cast<std::int8_t>(q);
    }
  }
}

}  // namespace

void gemm_int8_requant(const std::int8_t* a, const std::int8_t* bt, int m,
                       int n, int k, const GemmQuantPost& post,
                       std::int32_t* acc, std::int8_t* c,
                       const simd::SimdKernels* simd) {
  // The fused entry takes the whole matrix when the multiplier's shift
  // suits its vector lanes; bit-identical to the block loop either way.
  if (simd != nullptr && simd->gemm_requant != nullptr &&
      simd::vector_shift(post.multiplier)) {
    simd->gemm_requant(a, bt, m, n, k, post.offset, post.multiplier,
                       post.output_zp, post.act_lo, post.act_hi, acc, c);
    return;
  }
  for (int m0 = 0; m0 < m; m0 += 4) {
    run_gemm_requant_block(simd, a + static_cast<std::size_t>(m0) * k, bt,
                           std::min(4, m - m0), n, k, post, acc,
                           c + static_cast<std::size_t>(m0) * n);
  }
}

void gemm_f32(const float* a, const float* bt, int m, int n, int k,
              std::span<const float> bias, Activation act, float* c) {
  for (int m0 = 0; m0 < m; m0 += 4) {
    const int rows = std::min(4, m - m0);
    float* block = c + static_cast<std::size_t>(m0) * n;
    for (int r = 0; r < rows; ++r) {
      float* row = block + static_cast<std::size_t>(r) * n;
      if (bias.empty()) {
        std::fill_n(row, n, 0.0f);
      } else {
        std::copy(bias.begin(), bias.end(), row);
      }
    }
    gemm_block_f32(a + static_cast<std::size_t>(m0) * k, bt, rows, n, k,
                   block);
    apply_activation_row(block, static_cast<std::size_t>(rows) * n, act);
  }
}

}  // namespace qmcu::nn::ops
