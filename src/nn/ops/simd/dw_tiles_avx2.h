// dw_tiles_avx2.h — the depthwise conv driver shared by the AVX2 pair-madd
// and the AVX-VNNI generations (SimdKernels::dw_conv / dw_pack; the lane,
// tap and offset-row scheme is documented at DwConv in simd_kernels.h).
// Beside the gemm_tiles_avx2.h policy members (kStep, kABias, madd), a
// generation G supplies:
//
//   G::dw_slot_lane(s)  the flat lane (0..31) of a block that accumulator
//                       slot s (vector s / 8, element s % 8) holds.
//   G::dw_operands      the four operand vectors of one tap group: `t`
//                       (1..kStep) tap rows of 32 lanes each, read from
//                       lane l0 on of the padded rows at tap[i], interleaved
//                       per lane in slot order (taps past t read as zero).
//                       The ring build runs it once per input row, not once
//                       per output row.
//   G::dw_lane_order    32 packed output bytes from the packs' dword order
//                       (see DwOutput) into lane order.
//
// Include only from TUs compiled with -mavx2 (gemm_int8_avx2.cpp,
// gemm_int8_vnni.cpp); like requant_lanes_avx2.h, everything sits in an
// unnamed namespace so each TU keeps a copy built with its own flags.
#pragma once

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "nn/ops/simd/requant_lanes_avx2.h"
#include "nn/ops/simd/simd_kernels.h"

namespace qmcu::nn::ops::simd {
namespace {

// SimdKernels::dw_pack: for every block phase, kernel row and column
// group, 32 slots of kStep weights — one 4-byte lane of the madd operand:
// four int8 for the u8 x s8 quads, two int16 for the pairs. Columns past
// kernel_w are zero.
template <class G>
std::int64_t dw_pack_entry(const std::int8_t* w, int kernel_h, int kernel_w,
                           int c, std::int8_t* out) {
  constexpr int S = G::kStep;
  constexpr int kElem = 4 / S;  // bytes per weight in a lane
  const std::int64_t phases = dw_period(c) / 32;
  const int gw = (kernel_w + S - 1) / S;
  const std::int64_t bytes = phases * kernel_h * gw * 128;
  if (out == nullptr) return bytes;
  std::int8_t* dst = out;
  for (std::int64_t q = 0; q < phases; ++q) {
    for (int ky = 0; ky < kernel_h; ++ky) {
      for (int g = 0; g < gw; ++g, dst += 128) {
        for (int s = 0; s < 32; ++s) {
          const std::int64_t ch = (q * 32 + G::dw_slot_lane(s)) % c;
          for (int j = 0; j < S; ++j) {
            const int kx = g * S + j;
            const std::int16_t v =
                kx < kernel_w
                    ? w[(static_cast<std::int64_t>(ky) * kernel_w + kx) * c +
                        ch]
                    : 0;
            std::memcpy(dst + 4 * s + j * kElem, &v, kElem);  // little endian
          }
        }
      }
    }
  }
  return bytes;
}

template <class T>
T* align64(T* p) {
  return reinterpret_cast<T*>((reinterpret_cast<std::uintptr_t>(p) + 63) &
                              ~std::uintptr_t{63});
}

// The padded-row form of an input byte: x ^ 0x80 = x + 128 as u8 for a
// generation whose activations are biased (kABias = 128, the VNNI quads),
// x itself otherwise.
template <class G>
constexpr std::int8_t kDwFlip =
    G::kABias != 0 ? static_cast<std::int8_t>(0x80) : std::int8_t{0};

// dst[i] = src[i] ^ kDwFlip<G> for i in [0, n).
template <class G>
void copy_in(std::int8_t* dst, const std::int8_t* src, std::int64_t n) {
  const __m256i f = _mm256_set1_epi8(kDwFlip<G>);
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)), f));
  }
  if (i + 16 <= n) {
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(dst + i),
        _mm_xor_si128(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)),
            _mm256_castsi256_si128(f)));
    i += 16;
  }
  for (; i < n; ++i) dst[i] = static_cast<std::int8_t>(src[i] ^ kDwFlip<G>);
}

// n bytes of the input zero point in the same form (short runs: a pixel
// or two of padding).
template <class G>
void pad_in(std::int8_t* dst, std::int32_t zp, std::int64_t n) {
  const __m256i v =
      _mm256_set1_epi8(static_cast<char>(static_cast<std::int8_t>(zp) ^
                                         kDwFlip<G>));
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
  }
  if (i < n) {
    alignas(32) std::int8_t t[32];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), v);
    std::memcpy(dst + i, t, static_cast<std::size_t>(n - i));
  }
}

// Where one call's padded rows and ring rows live (DwConv::ring), worked
// out once per call so the per-row code does no division.
template <class G>
struct DwRing {
  explicit DwRing(const DwConv& p)
      : lanes(static_cast<std::int64_t>(p.out_w) * p.c),
        phase_bytes(dw_phase_bytes(p)),
        group_bytes(dw_group_bytes(p)),
        row_bytes((p.kernel_w + G::kStep - 1) / G::kStep * group_bytes),
        phase_w(static_cast<int>((phase_bytes - 32) / p.c)),
        padded(align64(p.ring)),
        ring(align64(padded + p.stride_w * phase_bytes)) {
    const int sw = p.stride_w;
    for (int r = 0; r < sw; ++r) {
      // Pixel i of phase r is padded column i * sw + r, input column
      // i * sw + r - pad_w: inside the input for i in [lo, hi).
      const auto first = [&](int ix) {
        return std::clamp((ix + p.pad_w - r + sw - 1) / sw, 0, phase_w);
      };
      lo[r] = first(0);
      hi[r] = std::max(lo[r], first(p.in_w));
    }
    for (int kx = 0; kx < p.kernel_w; ++kx) {
      column[kx] = (kx % sw) * phase_bytes +
                   static_cast<std::int64_t>(kx / sw) * p.c;
    }
  }

  std::int64_t lanes;        // out_w * c
  std::int64_t phase_bytes;  // one column phase of a padded row
  std::int64_t group_bytes;  // one column group of a ring row
  std::int64_t row_bytes;    // one ring row
  int phase_w;               // pixels of a column phase
  std::int8_t* padded;
  std::int8_t* ring;
  int lo[kDwMaxStride];
  int hi[kDwMaxStride];
  std::int64_t column[kDwMaxTaps];  // kernel column kx in the padded row
};

// Padded input row `pr` (row pr - pad_h of the input, or all padding) into
// g.padded: stride_w column phases in the copy_in form. The 32 bytes past
// each phase are set once per call by dw_rows.
template <class G>
void fill_padded_row(const DwConv& p, const DwRing<G>& g, int pr) {
  const int c = p.c;
  const int sw = p.stride_w;
  const int iy = pr - p.pad_h;
  const bool in_rows = iy >= 0 && iy < p.in_h;
  for (int r = 0; r < sw; ++r) {
    std::int8_t* dst = g.padded + r * g.phase_bytes;
    const auto at = [&](int i) {
      return dst + static_cast<std::int64_t>(i) * c;
    };
    const int lo = in_rows ? g.lo[r] : g.phase_w;
    const int hi = in_rows ? g.hi[r] : g.phase_w;
    pad_in<G>(dst, p.zp, static_cast<std::int64_t>(lo) * c);
    if (hi > lo) {
      const std::int8_t* src =
          p.x + (static_cast<std::int64_t>(iy) * p.in_w + lo * sw + r -
                 p.pad_w) *
                    c;
      if (sw == 1) {
        copy_in<G>(at(lo), src, static_cast<std::int64_t>(hi - lo) * c);
      } else {
        const std::int64_t step = static_cast<std::int64_t>(sw) * c;
        for (int i = lo; i < hi; ++i, src += step) copy_in<G>(at(i), src, c);
      }
    }
    pad_in<G>(at(hi), p.zp, static_cast<std::int64_t>(g.phase_w - hi) * c);
  }
}

// Padded input row `pr` as one ring row at `row`: for each column group
// (kernel columns j * kStep on), the group's taps of every output lane
// interleaved by G::dw_operands, lanes rounded up to whole blocks of 32,
// 4 bytes each.
template <class G>
void fill_ring_row(const DwConv& p, const DwRing<G>& g, int pr,
                   std::int8_t* row) {
  constexpr int S = G::kStep;
  fill_padded_row<G>(p, g, pr);
  for (int j = 0; j * S < p.kernel_w; ++j) {
    const int t = std::min(S, p.kernel_w - j * S);
    const std::int8_t* tap[S] = {};
    for (int i = 0; i < t; ++i) tap[i] = g.padded + g.column[j * S + i];
    auto* dst = reinterpret_cast<__m256i*>(row + j * g.group_bytes);
    for (std::int64_t l0 = 0; l0 < g.lanes; l0 += 32, dst += 4) {
      __m256i v[4];
      G::dw_operands(tap, t, l0, v);
      for (int i = 0; i < 4; ++i) _mm256_store_si256(dst + i, v[i]);
    }
  }
}

// The output stage of one block: 32 accumulators in slot order to 32 int8
// in lane order. Each 8-lane vector takes the Rescale lanes (lane order
// does not matter there); packs then saturate to int16, out_zp is added
// with int16 saturation, packs saturate to int8 and [lo, hi] clamps the
// bytes. Saturating first changes nothing: a lane beyond int16 stays beyond
// int8 after out_zp (|out_zp| <= 32640), where the clamp takes it anyway.
// The two packs leave dword k = 4 * h + a holding elements 4h..4h+3 of
// vector a; G::dw_lane_order moves those dwords into lane order. Other
// multipliers and output ranges spill to the scalar apply_multiplier.
template <class G>
class DwOutput {
 public:
  explicit DwOutput(const DwConv& p)
      : m_(p.m),
        vec_(vector_shift(p.m) && p.out_zp >= -32640 && p.out_zp <= 32640 &&
             p.lo >= -128 && p.lo <= p.hi && p.hi <= 127),
        rescale_(vec_ ? p.m : FixedPointMultiplier{p.m.mantissa, 0}),
        zp_(_mm256_set1_epi16(static_cast<std::int16_t>(vec_ ? p.out_zp : 0))),
        lo_(_mm256_set1_epi8(static_cast<char>(vec_ ? p.lo : 0))),
        hi_(_mm256_set1_epi8(static_cast<char>(vec_ ? p.hi : 0))),
        out_zp_(p.out_zp),
        lo_s_(p.lo),
        hi_s_(p.hi) {}

  // Lanes [0, n) of the block at y, n in 1..32.
  void store(const __m256i* acc, std::int8_t* y, std::int64_t n) const {
    if (!vec_) {
      alignas(32) std::int32_t t[32];
      for (int i = 0; i < 4; ++i) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(t + 8 * i), acc[i]);
      }
      for (int s = 0; s < 32; ++s) {
        const int lane = G::dw_slot_lane(s);
        if (lane < n) {
          y[lane] = static_cast<std::int8_t>(
              clamp_to(apply_multiplier(t[s], m_) + out_zp_, lo_s_, hi_s_));
        }
      }
      return;
    }
    const __m256i w0 = _mm256_adds_epi16(
        _mm256_packs_epi32(rescale_(acc[0]), rescale_(acc[1])), zp_);
    const __m256i w1 = _mm256_adds_epi16(
        _mm256_packs_epi32(rescale_(acc[2]), rescale_(acc[3])), zp_);
    const __m256i b = _mm256_min_epi8(
        _mm256_max_epi8(G::dw_lane_order(_mm256_packs_epi16(w0, w1)), lo_),
        hi_);
    if (n == 32) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(y), b);
    } else {
      alignas(32) std::int8_t t[32];
      _mm256_store_si256(reinterpret_cast<__m256i*>(t), b);
      std::memcpy(y, t, static_cast<std::size_t>(n));
    }
  }

 private:
  FixedPointMultiplier m_;
  bool vec_;
  Rescale rescale_;
  __m256i zp_;
  __m256i lo_;
  __m256i hi_;
  std::int32_t out_zp_;
  std::int32_t lo_s_;
  std::int32_t hi_s_;
};

// The blocks of one output row: `lanes` int8 outputs at y. src[k] is the
// ring row group of kernel row k / gw, column group k % gw, in the order
// dw_pack lays the weights out; kGroups > 0 fixes their number at compile
// time so the loop over them unrolls, 0 takes `groups`. A function of its
// own, so the output stage's constants stay in registers: the ring builds
// between rows are calls that would clobber them.
template <class G, int kGroups>
void dw_row(const std::int8_t* const* src, int groups, const __m256i* w,
            const std::int32_t* offset, std::int64_t period,
            std::int64_t lanes, const DwOutput<G>& out, std::int8_t* y) {
  if constexpr (kGroups > 0) groups = kGroups;
  // A private copy: the int8 stores below may alias the caller's object,
  // which would make the compiler reload the stage's constants after each.
  const DwOutput<G> stage = out;
  std::int64_t q = 0;  // this block's first lane within the period
  for (std::int64_t l0 = 0; l0 < lanes; l0 += 32) {
    const auto* off = reinterpret_cast<const __m256i*>(offset + q);
    __m256i acc[4];
    for (int i = 0; i < 4; ++i) acc[i] = _mm256_load_si256(off + i);
    const __m256i* wq = w + q / 32 * groups * 4;
    for (int k = 0; k < groups; ++k) {
      const auto* v = reinterpret_cast<const __m256i*>(src[k] + 4 * l0);
      for (int i = 0; i < 4; ++i) {
        acc[i] = G::madd(acc[i], _mm256_load_si256(v + i),
                         _mm256_loadu_si256(wq + 4 * k + i));
      }
    }
    stage.store(acc, y + l0, std::min<std::int64_t>(32, lanes - l0));
    q += 32;
    if (q == period) q = 0;
  }
}

// Every output row of one call: first the ring rows its windows need
// (padded row r lives in ring slot r mod kernel_h), then its blocks.
template <class G, int kGroups>
void dw_rows(const DwConv& p, const std::int32_t* offset) {
  const DwRing<G> g(p);
  const int kh = p.kernel_h;
  const int gw = (p.kernel_w + G::kStep - 1) / G::kStep;
  const auto* w = reinterpret_cast<const __m256i*>(p.w);
  const DwOutput<G> stage(p);
  // The lanes past each phase only feed output lanes past the row's end,
  // which are never stored; they are set once so no read is uninitialized.
  for (int r = 0; r < p.stride_w; ++r) {
    pad_in<G>(g.padded + (r + 1) * g.phase_bytes - 32, p.zp, 32);
  }
  const auto slot_row = [&](int slot) { return g.ring + slot * g.row_bytes; };
  const std::int8_t* src[kDwMaxTaps];
  int next_row = 0;  // the next padded input row the ring lacks
  int top_slot = 0;  // the ring slot of padded row `top`
  for (int oy = 0; oy < p.out_h; ++oy) {
    const int top = oy * p.stride_h;
    for (int pr = std::max(next_row, top); pr < top + kh; ++pr) {
      int slot = top_slot + (pr - top);
      if (slot >= kh) slot -= kh;
      fill_ring_row<G>(p, g, pr, slot_row(slot));
    }
    next_row = top + kh;
    for (int dy = 0, slot = top_slot; dy < kh; ++dy) {
      for (int j = 0; j < gw; ++j) {
        src[dy * gw + j] = slot_row(slot) + j * g.group_bytes;
      }
      if (++slot == kh) slot = 0;
    }
    dw_row<G, kGroups>(src, kh * gw, w, offset, dw_period(p.c), g.lanes,
                       stage, p.y + oy * g.lanes);
    top_slot += p.stride_h;
    while (top_slot >= kh) top_slot -= kh;
  }
}

// True when the policy's slots come in runs of four consecutive lanes
// (slot 4r + i holds lane dw_slot_lane(4r) + i), which the offset-row build
// and DwOutput's dword reorder rely on.
template <class G>
constexpr bool dw_runs_of_four() {
  for (int s = 0; s < 32; ++s) {
    if (G::dw_slot_lane(s) != G::dw_slot_lane(s - s % 4) + s % 4) return false;
  }
  return true;
}

// SimdKernels::dw_conv.
template <class G>
void dw_conv_entry(const DwConv& p) {
  static_assert(dw_runs_of_four<G>());
  const int c = p.c;
  const std::int64_t period = dw_period(c);
  // The offset row starts on a cache line, like the ring rows (DwRing),
  // so no 32-byte load of the body splits across two.
  std::int32_t* offset = align64(p.offset);

  // The offset row (see DwConv): channel order first, extended by 32 lanes
  // past the period, then each run of four slots copied from its lanes.
  std::int32_t* chan = offset + period;
  const std::int32_t a_zp = p.zp + G::kABias;
  for (int ch = 0; ch < c; ++ch) {
    chan[ch] = (p.bias != nullptr ? p.bias[ch] : 0) - a_zp * p.wsum[ch];
  }
  for (int j = c; j < c + 32; ++j) chan[j] = chan[j - c];
  std::int64_t first = 0;  // the channel of the block's lane 0
  for (std::int64_t q = 0; q < period; q += 32) {
    for (int s = 0; s < 32; s += 4) {
      std::memcpy(offset + q + s, chan + first + G::dw_slot_lane(s),
                  4 * sizeof(std::int32_t));
    }
    first += 32;
    while (first >= c) first -= c;
  }

  if (p.kernel_h == 3 && p.kernel_w == 3) {
    dw_rows<G, 3 * ((3 + G::kStep - 1) / G::kStep)>(p, offset);
  } else {
    dw_rows<G, 0>(p, offset);
  }
}

}  // namespace
}  // namespace qmcu::nn::ops::simd

#endif  // __AVX2__
