// gemm_tiles_avx2.h — the int8 GEMM driver shared by the AVX2 pair-madd
// and the AVX-VNNI generations: register tiles of up to 4 rows x 16 (or 8)
// columns, the per-call operand strip, the m == 1 row-sequential GEMV and
// the scalar column tail. A generation supplies only its k step and its
// operand form through a policy class G:
//
//   G::kStep         k elements per 32-bit lane (2: int16 pairs for
//                    vpmaddwd; 4: byte quads for vpdpbusd).
//   G::kABias        constant added to every activation (SimdKernels::
//                    gemm_a_bias): 0, or 128 for the u8 x s8 vpdpbusd.
//   G::weights<V>    the V ymm operands of one k step of a V*8-column
//                    tile, built from `t` (1..kStep) k-major panel rows
//                    (rows past t read as zero).
//   G::broadcast     one full k step of activations, in every lane, read
//                    straight from memory.
//   G::broadcast_tail
//                    the last t < kStep activations; never reads past them.
//   G::madd          acc + the exact lane dot product of one k step.
//   G::order16       the two accumulators of a 16-column tile into column
//                    order (lanes 0..7, 8..15).
//
// Include only from TUs compiled with -mavx2 (gemm_int8_avx2.cpp,
// gemm_int8_vnni.cpp). Like requant_lanes_avx2.h, everything sits in an
// unnamed namespace so each TU keeps a copy built with its own flags.
#pragma once

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "nn/ops/simd/requant_lanes_avx2.h"
#include "nn/ops/simd/simd_kernels.h"

namespace qmcu::nn::ops::simd {
namespace {

// A column tile's operands read in place from the k-major panel, as the
// tile consumes them. `bt` points at the tile's first column of panel row 0.
template <class G, int V>
struct PanelOperands {
  const std::int8_t* bt;
  int n;

  void step(int s, int t, __m256i* w) const {
    G::template weights<V>(bt + static_cast<std::size_t>(s) * G::kStep * n,
                           n, t, w);
  }
};

// The same operands laid out once per call: step s is V consecutive ymm.
// The k tail step is stored zero-filled, so `t` is not needed here.
template <int V>
struct StripOperands {
  const __m256i* strip;

  void step(int s, int /*t*/, __m256i* w) const {
    for (int v = 0; v < V; ++v) w[v] = strip[V * s + v];
  }
};

// ROWS A rows (row r0 of the output onward) against one V*8-column tile
// starting at column j0. `w` is a PanelOperands or a StripOperands: one
// body for both, so the strip is only a cache of what the panel path
// computes in the loop.
template <class G, int ROWS, int V, class W, class Out>
void gemm_tile(const std::int8_t* a, int k, const W& w, int r0, int j0,
               const Out& out) {
  constexpr int S = G::kStep;
  __m256i acc[ROWS][V];
  for (int r = 0; r < ROWS; ++r) {
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_si256();
  }
  const int steps = k / S;
  for (int s = 0; s < steps; ++s) {
    __m256i ws[V];
    w.step(s, S, ws);
    for (int r = 0; r < ROWS; ++r) {
      const __m256i av = G::broadcast(a + static_cast<std::size_t>(r) * k +
                                      static_cast<std::size_t>(s) * S);
      for (int v = 0; v < V; ++v) acc[r][v] = G::madd(acc[r][v], av, ws[v]);
    }
  }
  if (const int t = k - steps * S; t > 0) {
    __m256i ws[V];
    w.step(steps, t, ws);
    for (int r = 0; r < ROWS; ++r) {
      const __m256i av = G::broadcast_tail(
          a + static_cast<std::size_t>(r) * k +
              static_cast<std::size_t>(steps) * S,
          t);
      for (int v = 0; v < V; ++v) acc[r][v] = G::madd(acc[r][v], av, ws[v]);
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    if constexpr (V == 2) {
      G::order16(&acc[r][0], &acc[r][1]);
      out.row16(r0 + r, j0, acc[r][0], acc[r][1]);
    } else {
      out.row8(r0 + r, j0, acc[r][0]);
    }
  }
}

// Every row of A in blocks of four, then the 1..3 leftover rows.
template <class G, int V, class W, class Out>
void row_blocks(const std::int8_t* a, int m, int k, const W& w, int j0,
                const Out& out) {
  int r0 = 0;
  for (; r0 + 4 <= m; r0 += 4) {
    gemm_tile<G, 4, V>(a + static_cast<std::size_t>(r0) * k, k, w, r0, j0,
                       out);
  }
  const std::int8_t* ar = a + static_cast<std::size_t>(r0) * k;
  switch (m - r0) {
    case 3:
      gemm_tile<G, 3, V>(ar, k, w, r0, j0, out);
      break;
    case 2:
      gemm_tile<G, 2, V>(ar, k, w, r0, j0, out);
      break;
    case 1:
      gemm_tile<G, 1, V>(ar, k, w, r0, j0, out);
      break;
    default:
      break;
  }
}

// One V*8-column tile for all m rows. With more than one row block and
// k <= kGemmStripK, the tile's operands are built once into a stack strip
// and every row block reads them from there; otherwise each block reads
// the panel in place.
template <class G, int V, class Out>
void column_tile(const std::int8_t* a, const std::int8_t* bt, int m, int n,
                 int k, int j0, const Out& out) {
  const PanelOperands<G, V> panel{bt + j0, n};
  if (m <= 4 || k > kGemmStripK) {
    row_blocks<G, V>(a, m, k, panel, j0, out);
    return;
  }
  constexpr int S = G::kStep;
  __m256i strip[V * (kGemmStripK / S)];
  const int steps = k / S;
  for (int s = 0; s < steps; ++s) panel.step(s, S, strip + V * s);
  if (const int t = k - steps * S; t > 0) {
    panel.step(steps, t, strip + V * steps);
  }
  row_blocks<G, V>(a, m, k, StripOperands<V>{strip}, j0, out);
}

// out rows [0, m) of A x Bt: 16-column tiles, one 8-column tile, then the
// last n % 8 columns in the scalar register-tile shape of gemm_int8.cpp
// with the generation's activation bias (one contract per table).
template <class G, class Out>
void gemm_rows(const std::int8_t* a, const std::int8_t* bt, int m, int n,
               int k, const Out& out) {
  int j0 = 0;
  for (; j0 + 16 <= n; j0 += 16) column_tile<G, 2>(a, bt, m, n, k, j0, out);
  if (j0 + 8 <= n) {
    column_tile<G, 1>(a, bt, m, n, k, j0, out);
    j0 += 8;
  }
  if (j0 == n) return;
  const int jn = n - j0;
  for (int r = 0; r < m; ++r) {
    const std::int8_t* ar = a + static_cast<std::size_t>(r) * k;
    std::int32_t t[8] = {0};
    const std::int8_t* bp = bt + j0;
    for (int kk = 0; kk < k; ++kk, bp += n) {
      const std::int32_t v = static_cast<std::int32_t>(ar[kk]) + G::kABias;
      for (int j = 0; j < jn; ++j) t[j] += v * bp[j];
    }
    out.row_tail(r, j0, t, jn);
  }
}

inline __m256i load_i32x8(const std::int32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store_i32x8(std::int32_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// A GEMV pass reads kGemvPassBytes of panel rows (at least kGemvSteps k
// steps): each column tile keeps its accumulators in registers for the
// whole pass, and the pass's rows stay in L1 while the tiles walk them.
constexpr int kGemvSteps = 8;
constexpr int kGemvPassBytes = 16 * 1024;

// One V*8-column tile of a GEMV pass (see gemv_pass): the tile's
// accumulators are loaded from `acc`, take `count` k steps and go back.
template <class G, int V>
[[gnu::always_inline]] inline void gemv_tile(const std::int8_t* a,
                                             const std::int8_t* b0, int n,
                                             int count, int t,
                                             std::int32_t* acc) {
  constexpr int S = G::kStep;
  __m256i c[V];
  for (int v = 0; v < V; ++v) c[v] = load_i32x8(acc + 8 * v);
  for (int i = 0; i < count; ++i) {
    __m256i w[V];
    G::template weights<V>(b0 + static_cast<std::size_t>(i) * S * n, n, t,
                           w);
    const __m256i av =
        t == S ? G::broadcast(a + i * S) : G::broadcast_tail(a + i * S, t);
    for (int v = 0; v < V; ++v) c[v] = G::madd(c[v], av, w[v]);
  }
  for (int v = 0; v < V; ++v) store_i32x8(acc + 8 * v, c[v]);
}

// One GEMV pass: `count` k steps of width t (count == 1 when t < kStep)
// from activations `a` and panel row `b0` on, across every column. Each of
// the pass's panel rows is read once, left to right.
template <class G>
[[gnu::always_inline]] inline void gemv_pass(const std::int8_t* a,
                                             const std::int8_t* b0, int n,
                                             int count, int t,
                                             std::int32_t* acc) {
  constexpr int S = G::kStep;
  int j = 0;
  for (; j + 16 <= n; j += 16) gemv_tile<G, 2>(a, b0 + j, n, count, t, acc + j);
  if (j + 8 <= n) {
    gemv_tile<G, 1>(a, b0 + j, n, count, t, acc + j);
    j += 8;
  }
  const int rows = count == 1 ? t : count * S;
  for (; j < n; ++j) {
    std::int32_t s = 0;
    for (int i = 0; i < rows; ++i) {
      s += (static_cast<std::int32_t>(a[i]) + G::kABias) *
           b0[static_cast<std::size_t>(i) * n + j];
    }
    acc[j] += s;
  }
}

// m == 1 (the fully-connected layers): the panel streamed one pass of k
// steps at a time into the n int32 of `acc`, then requantized into out
// row 0. A 16-column block of `acc` holds its lanes in the generation's
// accumulator order until order16 at the end.
template <class G>
void gemv_requant(const std::int8_t* a, const std::int8_t* bt, int n, int k,
                  std::int32_t* acc, const QuantRows& out) {
  constexpr int S = G::kStep;
  std::fill_n(acc, n, 0);
  const int steps = k / S;
  const int pass = std::max(kGemvSteps, kGemvPassBytes / (S * n));
  for (int s = 0; s < steps; s += pass) {
    gemv_pass<G>(a + static_cast<std::size_t>(s) * S,
                 bt + static_cast<std::size_t>(s) * S * n, n,
                 std::min(pass, steps - s), S, acc);
  }
  if (const int t = k - steps * S; t > 0) {
    gemv_pass<G>(a + static_cast<std::size_t>(steps) * S,
                 bt + static_cast<std::size_t>(steps) * S * n, n, 1, t, acc);
  }
  int j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256i v0 = load_i32x8(acc + j);
    __m256i v1 = load_i32x8(acc + j + 8);
    G::order16(&v0, &v1);
    out.row16(0, j, v0, v1);
  }
  if (j + 8 <= n) {
    out.row8(0, j, load_i32x8(acc + j));
    j += 8;
  }
  if (j < n) out.row_tail(0, j, acc + j, n - j);
}

// SimdKernels::gemm_block_i8 (rows 1..4, panel read in place).
template <class G>
void gemm_block_entry(const std::int8_t* a, const std::int8_t* bt, int rows,
                      int n, int k, std::int32_t* acc) {
  gemm_rows<G>(a, bt, rows, n, k, AccRows{acc, n});
}

// SimdKernels::gemm_requant: the whole matrix in one call.
template <class G>
void gemm_requant_entry(const std::int8_t* a, const std::int8_t* bt, int m,
                        int n, int k, const std::int32_t* offset,
                        FixedPointMultiplier mult, std::int32_t out_zp,
                        std::int32_t lo, std::int32_t hi, std::int32_t* acc,
                        std::int8_t* out) {
  const QuantRows sink{offset, OutputStage(mult, out_zp, lo, hi), out, n};
  if (m == 1) {
    gemv_requant<G>(a, bt, n, k, acc, sink);
    return;
  }
  gemm_rows<G>(a, bt, m, n, k, sink);
}

}  // namespace
}  // namespace qmcu::nn::ops::simd

#endif  // __AVX2__
