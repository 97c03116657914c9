#include "nn/ops/backend.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "nn/ops/float_kernels.h"
#include "nn/ops/gemm_int8.h"
#include "nn/ops/im2col.h"
#include "nn/ops/simd/simd_kernels.h"
#include "quant/bitpack.h"

namespace qmcu::nn::ops {

KernelBackend::KernelBackend(KernelTier tier, bool cache_weight_panels)
    : tier_(tier),
      simd_(tier == KernelTier::Simd ? simd::kernels() : nullptr),
      cache_weight_panels_(cache_weight_panels) {}

namespace {

template <typename T>
std::span<T> take_block(std::vector<std::vector<T>>& blocks, std::size_t& next,
                        std::size_t n) {
  if (next == blocks.size()) blocks.emplace_back();
  std::vector<T>& block = blocks[next++];
  if (block.size() < n) block.resize(n);
  return std::span<T>(block.data(), n);
}

}  // namespace

std::span<std::int8_t> ScratchArena::i8(std::size_t n) {
  affinity_.check("ScratchArena");
  return take_block(i8_blocks_, i8_next_, n);
}

std::span<std::int32_t> ScratchArena::i32(std::size_t n) {
  affinity_.check("ScratchArena");
  return take_block(i32_blocks_, i32_next_, n);
}

std::span<float> ScratchArena::f32(std::size_t n) {
  affinity_.check("ScratchArena");
  return take_block(f32_blocks_, f32_next_, n);
}

void ScratchArena::reset() {
  affinity_.check("ScratchArena");
  i8_next_ = 0;
  i32_next_ = 0;
  f32_next_ = 0;
}

std::size_t ScratchArena::footprint_bytes() const {
  std::size_t total = 0;
  for (const auto& b : i8_blocks_) total += b.capacity();
  for (const auto& b : i32_blocks_) total += b.capacity() * sizeof(std::int32_t);
  for (const auto& b : f32_blocks_) total += b.capacity() * sizeof(float);
  return total;
}

// ---------------------------------------------------------------------------
// Simd integer tier.

namespace {

// Output-index range [lo, hi) along one axis whose windows lie fully inside
// the input — the interior that runs branch-free; everything outside is the
// border handled with per-position bounds checks.
struct OutputInterior {
  int lo;
  int hi;  // exclusive
};

OutputInterior output_interior(int kernel, int stride, int pad, int extent,
                               int out_extent) {
  int lo = pad <= 0 ? 0 : (pad + stride - 1) / stride;
  int hi_inclusive = (extent - kernel + pad) / stride;
  lo = std::max(lo, 0);
  hi_inclusive = std::min(hi_inclusive, out_extent - 1);
  return {lo, hi_inclusive + 1};
}

// Shared im2col + GEMM driver. `pack_row(oy, dst)` fills one output row's
// im2col strip; everything else (zero-point folding, requantization) is
// common to the unpacked and packed-input paths. `bt`/`wsum` come from
// KernelBackend::weight_panel; the arena must already be reset by the
// caller (the panel may live in it). Writes into the caller-bound `out`.
// `simd` routes the GEMM block + epilogue through the Simd tier's
// microkernels (null = scalar fallbacks; outputs identical either way).
template <typename PackRow>
void fast_conv2d_impl(ScratchArena& arena, const TensorShape& is,
                      const QuantParams& ip, const Layer& l,
                      std::span<const std::int8_t> bt,
                      std::span<const std::int32_t> wsum,
                      const QuantParams& wparams,
                      std::span<const std::int32_t> qbias,
                      const PackRow& pack_row, QTensor& out,
                      const simd::SimdKernels* simd,
                      std::span<const std::int32_t> pre_offset = {},
                      const std::int8_t* pointwise_a = nullptr) {
  const TensorShape os = conv_output_shape(is, l, l.out_channels);
  const int n = l.out_channels;
  const int k = static_cast<int>(im2col_row_elements(is, l));
  QMCU_REQUIRE(out.shape() == os, "conv2d: destination shape mismatch");
  const QuantParams& out_params = out.params();

  // Per-column constant folding bias and the input zero-point correction.
  // The AVX-VNNI generation's GEMM block biases every activation lane by
  // +128 (see SimdKernels::gemm_a_bias); treating the bias as part of the
  // zero point folds its -128*Σw correction into the same constant.
  // `pre_offset` (a registered artifact row validated by the caller against
  // the live a_zp and the bias array) skips the per-run recomputation.
  std::span<const std::int32_t> offset = pre_offset;
  if (offset.empty()) {
    const std::int32_t a_zp =
        ip.zero_point + simd::gemm_activation_bias(simd);
    auto row = arena.i32(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      const std::int32_t bias =
          qbias.empty() ? 0 : qbias[static_cast<std::size_t>(j)];
      row[static_cast<std::size_t>(j)] =
          bias - a_zp * wsum[static_cast<std::size_t>(j)];
    }
    offset = row;
  }
  auto acc = arena.i32(4 * static_cast<std::size_t>(n));

  GemmQuantPost post;
  post.offset = offset.data();
  post.multiplier = quantize_multiplier(
      static_cast<double>(ip.scale) * wparams.scale / out_params.scale);
  post.output_zp = out_params.zero_point;
  const auto [act_lo, act_hi] = activation_range(l.act, out_params);
  post.act_lo = act_lo;
  post.act_hi = act_hi;

  std::int8_t* y = out.data().data();
  if (pointwise_a != nullptr) {
    // `pointwise_a` is the whole input map of a 1x1 / stride-1 / pad-0
    // conv, already laid out as the (h*w) x k im2col matrix: one GEMM over
    // every output pixel, no packing.
    gemm_int8_requant(pointwise_a, bt.data(), os.h * os.w, n, k, post,
                      acc.data(), y, simd);
    return;
  }
  auto a = arena.i8(static_cast<std::size_t>(os.w) * k);
  for (int oy = 0; oy < os.h; ++oy) {
    pack_row(oy, a.data());
    gemm_int8_requant(a.data(), bt.data(), os.w, n, k, post, acc.data(),
                      y + static_cast<std::size_t>(oy) * os.w * n, simd);
  }
}

void fast_depthwise_conv2d(ScratchArena& arena, const QTensor& in,
                           const Layer& l,
                           std::span<const std::int8_t> qweights,
                           const QuantParams& wparams,
                           std::span<const std::int32_t> qbias, QTensor& out,
                           const simd::SimdKernels* simd) {
  const TensorShape& is = in.shape();
  const TensorShape os = conv_output_shape(is, l, is.c);
  const int c = is.c;
  QMCU_REQUIRE(static_cast<std::int64_t>(qweights.size()) ==
                   static_cast<std::int64_t>(l.kernel_h) * l.kernel_w * c,
               "dwconv weight count mismatch");
  QMCU_REQUIRE(out.shape() == os,
               "depthwise_conv2d: destination shape mismatch");
  const QuantParams& out_params = out.params();
  const auto& ip = in.params();
  const FixedPointMultiplier m = quantize_multiplier(
      static_cast<double>(ip.scale) * wparams.scale / out_params.scale);
  const auto [act_lo, act_hi] = activation_range(l.act, out_params);
  const std::int32_t zp = ip.zero_point;
  const std::int8_t* x = in.data().data();
  const std::int8_t* w = qweights.data();
  std::int8_t* y = out.data().data();

  const OutputInterior oy_int =
      output_interior(l.kernel_h, l.stride_h, l.pad_h, is.h, os.h);
  const OutputInterior ox_int =
      output_interior(l.kernel_w, l.stride_w, l.pad_w, is.w, os.w);

  const auto conv_row = (simd != nullptr) ? simd->dw_conv_row : nullptr;
  if (conv_row != nullptr && zp >= -128 && zp <= 127) {
    // Fused rows: per output row, the border columns one pixel at a time
    // with their clipped window, the interior columns as one run.
    simd::DwConvRow p;
    p.x_row = static_cast<std::int64_t>(is.w) * c;
    p.x_step = static_cast<std::int64_t>(l.stride_w) * c;
    p.w_row = l.kernel_w * c;
    p.bias = qbias.empty() ? nullptr : qbias.data();
    p.c = c;
    p.zp = zp;
    p.m = m;
    p.out_zp = out_params.zero_point;
    p.lo = act_lo;
    p.hi = act_hi;
    const int run_lo = std::clamp(ox_int.lo, 0, os.w);
    const int run_hi = std::clamp(ox_int.hi, run_lo, os.w);
    for (int oy = 0; oy < os.h; ++oy) {
      const int iy0 = oy * l.stride_h - l.pad_h;
      const KernelRange kyr = valid_kernel_range(iy0, l.kernel_h, is.h);
      const auto run = [&](int ox0, int count, KernelRange kxr) {
        const int ix0 = ox0 * l.stride_w - l.pad_w;
        p.taps_h = kyr.count();
        p.taps_w = kxr.count();
        p.x = x;
        p.w = w;
        if (p.taps_h > 0 && p.taps_w > 0) {
          p.x += flat_index(is, iy0 + kyr.lo, ix0 + kxr.lo, 0);
          p.w += (static_cast<std::size_t>(kyr.lo) * l.kernel_w + kxr.lo) *
                 static_cast<std::size_t>(c);
        }
        p.count = count;
        p.y = y + static_cast<std::size_t>(flat_index(os, oy, ox0, 0));
        conv_row(p);
      };
      const auto border = [&](int ox) {
        run(ox, 1,
            valid_kernel_range(ox * l.stride_w - l.pad_w, l.kernel_w, is.w));
      };
      for (int ox = 0; ox < run_lo; ++ox) border(ox);
      if (run_hi > run_lo) run(run_lo, run_hi - run_lo, {0, l.kernel_w});
      for (int ox = run_hi; ox < os.w; ++ox) border(ox);
    }
    return;
  }

  arena.reset();
  auto acc = arena.i32(static_cast<std::size_t>(c));

  const auto accumulate =
      (simd != nullptr) ? simd->dw_accumulate : nullptr;
  const auto requant_row =
      (simd != nullptr) ? simd->requant_i32_row : nullptr;

  const auto run_pixel = [&](int oy, int ox, bool border) {
    const int iy0 = oy * l.stride_h - l.pad_h;
    const int ix0 = ox * l.stride_w - l.pad_w;
    const KernelRange kyr =
        border ? valid_kernel_range(iy0, l.kernel_h, is.h)
               : KernelRange{0, l.kernel_h};
    const KernelRange kxr =
        border ? valid_kernel_range(ix0, l.kernel_w, is.w)
               : KernelRange{0, l.kernel_w};
    const int ky_lo = kyr.lo;
    const int ky_hi = kyr.hi;
    const int kx_lo = kxr.lo;
    const int kx_hi = kxr.hi;
    if (qbias.empty()) {
      std::fill(acc.begin(), acc.end(), 0);
    } else {
      std::memcpy(acc.data(), qbias.data(),
                  static_cast<std::size_t>(c) * sizeof(std::int32_t));
    }
    for (int ky = ky_lo; ky < ky_hi; ++ky) {
      const std::int8_t* xrow =
          x + static_cast<std::size_t>(
                  flat_index(is, iy0 + ky, ix0 + kx_lo, 0));
      const std::int8_t* wrow =
          w + (static_cast<std::size_t>(ky) *
                   static_cast<std::size_t>(l.kernel_w) +
               static_cast<std::size_t>(kx_lo)) *
                  static_cast<std::size_t>(c);
      // One contiguous channel run per kernel position; the Simd MAC row
      // computes the identical (x - zp) * w int32 sums.
      for (int kx = kx_lo; kx < kx_hi; ++kx) {
        if (accumulate != nullptr) {
          accumulate(xrow, wrow, c, zp, acc.data());
        } else {
          for (int ch = 0; ch < c; ++ch) {
            acc[static_cast<std::size_t>(ch)] +=
                (static_cast<std::int32_t>(xrow[ch]) - zp) * wrow[ch];
          }
        }
        xrow += c;
        wrow += c;
      }
    }
    std::int8_t* yrow =
        y + static_cast<std::size_t>(flat_index(os, oy, ox, 0));
    if (requant_row != nullptr) {
      requant_row(acc.data(), nullptr, c, m, out_params.zero_point, act_lo,
                  act_hi, yrow);
      return;
    }
    for (int ch = 0; ch < c; ++ch) {
      yrow[ch] = static_cast<std::int8_t>(
          clamp_to(apply_multiplier(acc[static_cast<std::size_t>(ch)], m) +
                       out_params.zero_point,
                   act_lo, act_hi));
    }
  };

  for (int oy = 0; oy < os.h; ++oy) {
    const bool y_border = oy < oy_int.lo || oy >= oy_int.hi;
    for (int ox = 0; ox < os.w; ++ox) {
      const bool border = y_border || ox < ox_int.lo || ox >= ox_int.hi;
      run_pixel(oy, ox, border);
    }
  }
}

}  // namespace

KernelBackend::PanelView KernelBackend::weight_panel(
    std::span<const std::int8_t> qweights, int n, int k) {
  if (!adopted_panels_.empty()) {
    const auto it = adopted_panels_.find(qweights.data());
    if (it != adopted_panels_.end() &&
        static_cast<int>(it->second.wsum.size()) == n &&
        static_cast<std::int64_t>(it->second.bt.size()) ==
            static_cast<std::int64_t>(n) * k) {
      return it->second;
    }
  }
  if (cache_weight_panels_) {
    WeightPanel& p = panels_[qweights.data()];
    if (static_cast<int>(p.wsum.size()) != n ||
        static_cast<std::int64_t>(p.bt.size()) !=
            static_cast<std::int64_t>(n) * k) {
      p.bt.resize(static_cast<std::size_t>(n) * k);
      pack_weights_kmajor(qweights, n, k, p.bt.data());
      p.wsum.resize(static_cast<std::size_t>(n));
      weight_column_sums(qweights, n, k, p.wsum.data());
    }
    return {p.bt, p.wsum};
  }
  auto bt = arena_.i8(static_cast<std::size_t>(n) * k);
  pack_weights_kmajor(qweights, n, k, bt.data());
  auto wsum = arena_.i32(static_cast<std::size_t>(n));
  weight_column_sums(qweights, n, k, wsum.data());
  return {bt, wsum};
}

void KernelBackend::prepack(std::span<const std::int8_t> qweights, int n,
                            int k) {
  if (!cache_weight_panels_) return;
  (void)weight_panel(qweights, n, k);
}

void KernelBackend::adopt_panel(const std::int8_t* key,
                                std::span<const std::int8_t> bt,
                                std::span<const std::int32_t> wsum) {
  QMCU_REQUIRE(key != nullptr && !bt.empty() && !wsum.empty(),
               "adopt_panel: empty panel");
  adopted_panels_[key] = PanelView{bt, wsum};
}

void KernelBackend::register_offset_row(const std::int8_t* key,
                                        std::int32_t a_zp,
                                        const std::int32_t* bias,
                                        std::span<const std::int32_t> offset) {
  QMCU_REQUIRE(key != nullptr && !offset.empty(),
               "register_offset_row: empty row");
  offset_rows_[key] = OffsetRow{a_zp, bias, offset};
}

std::span<const std::int32_t> KernelBackend::offset_row(
    const std::int8_t* key, std::int32_t a_zp,
    std::span<const std::int32_t> bias, int n) const {
  if (offset_rows_.empty()) return {};
  const auto it = offset_rows_.find(key);
  if (it == offset_rows_.end() || it->second.a_zp != a_zp ||
      it->second.bias != bias.data() ||
      static_cast<int>(it->second.offset.size()) != n) {
    return {};
  }
  return it->second.offset;
}

void KernelBackend::conv2d_into(const QTensor& in, const Layer& l,
                                std::span<const std::int8_t> qweights,
                                const QuantParams& wparams,
                                std::span<const std::int32_t> qbias,
                                QTensor& out) {
  guard();
  if (tier_ == KernelTier::Reference) {
    conv2d_q_into(in, l, qweights, wparams, qbias, out);
    return;
  }
  const TensorShape& is = in.shape();
  const int n = l.out_channels;
  const std::int64_t k = im2col_row_elements(is, l);
  QMCU_REQUIRE(static_cast<std::int64_t>(qweights.size()) == k * n,
               "conv weight count mismatch");
  const auto x = in.data();
  const QuantParams& ip = in.params();
  const std::int8_t pad = static_cast<std::int8_t>(ip.zero_point);
  const auto pack_row = [&](int oy, std::int8_t* dst) {
    im2col_pack_row(x, is, l, oy,
                    conv_output_shape(is, l, l.out_channels).w, pad, dst);
  };
  arena_.reset();
  const PanelView w = weight_panel(qweights, n, static_cast<int>(k));
  // A 1x1, stride-1, unpadded conv reads each input pixel's channels as
  // its im2col row: the NHWC map already is the GEMM's A matrix.
  const bool pointwise = l.kernel_h == 1 && l.kernel_w == 1 &&
                         l.stride_h == 1 && l.stride_w == 1 &&
                         l.pad_h == 0 && l.pad_w == 0;
  fast_conv2d_impl(
      arena_, is, ip, l, w.bt, w.wsum, wparams, qbias, pack_row, out, simd_,
      offset_row(qweights.data(),
                 ip.zero_point + simd::gemm_activation_bias(simd_), qbias, n),
      pointwise ? x.data() : nullptr);
}

QTensor KernelBackend::conv2d(const QTensor& in, const Layer& l,
                              std::span<const std::int8_t> qweights,
                              const QuantParams& wparams,
                              std::span<const std::int32_t> qbias,
                              const QuantParams& out_params) {
  guard();
  QTensor out(conv_output_shape(in.shape(), l, l.out_channels), out_params);
  conv2d_into(in, l, qweights, wparams, qbias, out);
  return out;
}

QTensor KernelBackend::conv2d_packed(std::span<const std::uint8_t> packed,
                                     const TensorShape& in_shape,
                                     const QuantParams& in_params,
                                     const Layer& l,
                                     std::span<const std::int8_t> qweights,
                                     const QuantParams& wparams,
                                     std::span<const std::int32_t> qbias,
                                     const QuantParams& out_params) {
  guard();
  QMCU_REQUIRE(
      static_cast<std::int64_t>(packed.size()) >=
          in_shape.bytes(in_params.bits),
      "packed activation buffer too small");
  if (tier_ == KernelTier::Reference) {
    // Reference path materializes the unpacked tensor first.
    QTensor in(in_shape, in_params);
    quant::unpack_into(packed, 0, in_shape.elements(), in_params.bits,
                       in.data().data());
    return conv2d_q(in, l, qweights, wparams, qbias, out_params);
  }
  const int n = l.out_channels;
  const std::int64_t k = im2col_row_elements(in_shape, l);
  QMCU_REQUIRE(static_cast<std::int64_t>(qweights.size()) == k * n,
               "conv weight count mismatch");
  const std::int8_t pad = static_cast<std::int8_t>(in_params.zero_point);
  const int bits = in_params.bits;
  QTensor out(conv_output_shape(in_shape, l, l.out_channels), out_params);
  const auto pack_row = [&](int oy, std::int8_t* dst) {
    im2col_pack_row_subbyte(
        packed, bits, in_shape, l, oy,
        conv_output_shape(in_shape, l, l.out_channels).w, pad, dst, simd_);
  };
  arena_.reset();
  const PanelView w = weight_panel(qweights, n, static_cast<int>(k));
  fast_conv2d_impl(
      arena_, in_shape, in_params, l, w.bt, w.wsum, wparams, qbias, pack_row,
      out, simd_,
      offset_row(qweights.data(),
                 in_params.zero_point + simd::gemm_activation_bias(simd_),
                 qbias, n));
  return out;
}

void KernelBackend::depthwise_conv2d_into(const QTensor& in, const Layer& l,
                                          std::span<const std::int8_t> qweights,
                                          const QuantParams& wparams,
                                          std::span<const std::int32_t> qbias,
                                          QTensor& out) {
  guard();
  if (tier_ == KernelTier::Reference) {
    depthwise_conv2d_q_into(in, l, qweights, wparams, qbias, out);
    return;
  }
  fast_depthwise_conv2d(arena_, in, l, qweights, wparams, qbias, out, simd_);
}

QTensor KernelBackend::depthwise_conv2d(const QTensor& in, const Layer& l,
                                        std::span<const std::int8_t> qweights,
                                        const QuantParams& wparams,
                                        std::span<const std::int32_t> qbias,
                                        const QuantParams& out_params) {
  guard();
  QTensor out(conv_output_shape(in.shape(), l, in.shape().c), out_params);
  depthwise_conv2d_into(in, l, qweights, wparams, qbias, out);
  return out;
}

void KernelBackend::fully_connected_into(const QTensor& in, const Layer& l,
                                         std::span<const std::int8_t> qweights,
                                         const QuantParams& wparams,
                                         std::span<const std::int32_t> qbias,
                                         QTensor& out) {
  guard();
  if (tier_ == KernelTier::Reference) {
    fully_connected_q_into(in, l, qweights, wparams, qbias, out);
    return;
  }
  const std::int64_t in_features = in.elements();
  QMCU_REQUIRE(static_cast<std::int64_t>(qweights.size()) ==
                   in_features * l.out_channels,
               "fc weight count mismatch");
  QMCU_REQUIRE(out.shape() == TensorShape(1, 1, l.out_channels),
               "fully_connected: destination shape mismatch");
  const QuantParams& out_params = out.params();
  const auto& ip = in.params();
  // m == 1 GEMM over the k-major weight panel: the same accumulator tile
  // (and Simd microkernel — pair-madd or dot-product generation) as conv,
  // with CMSIS-NN zero-point folding in place of the per-lane subtraction.
  // The panel is cached/prepacked exactly like a conv panel, so compiled
  // models pay the repack once at construction.
  const int n = l.out_channels;
  const int k = static_cast<int>(in_features);
  arena_.reset();
  const PanelView w = weight_panel(qweights, n, k);
  const std::int32_t a_zp =
      ip.zero_point + simd::gemm_activation_bias(simd_);
  std::span<const std::int32_t> offset =
      offset_row(qweights.data(), a_zp, qbias, n);
  if (offset.empty()) {
    auto row = arena_.i32(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      const std::int32_t bias =
          qbias.empty() ? 0 : qbias[static_cast<std::size_t>(j)];
      row[static_cast<std::size_t>(j)] =
          bias - a_zp * w.wsum[static_cast<std::size_t>(j)];
    }
    offset = row;
  }
  auto acc = arena_.i32(static_cast<std::size_t>(n));  // one row: m == 1
  GemmQuantPost post;
  post.offset = offset.data();
  post.multiplier = quantize_multiplier(
      static_cast<double>(ip.scale) * wparams.scale / out_params.scale);
  post.output_zp = out_params.zero_point;
  const auto [act_lo, act_hi] = activation_range(l.act, out_params);
  post.act_lo = act_lo;
  post.act_hi = act_hi;
  gemm_int8_requant(in.data().data(), w.bt.data(), 1, n, k, post, acc.data(),
                    out.data().data(), simd_);
}

QTensor KernelBackend::fully_connected(const QTensor& in, const Layer& l,
                                       std::span<const std::int8_t> qweights,
                                       const QuantParams& wparams,
                                       std::span<const std::int32_t> qbias,
                                       const QuantParams& out_params) {
  guard();
  QTensor out(TensorShape{1, 1, l.out_channels}, out_params);
  fully_connected_into(in, l, qweights, wparams, qbias, out);
  return out;
}

QTensor KernelBackend::max_pool(const QTensor& in, const Layer& l) {
  guard();
  // The reference max pool is already branch-light after the row-pointer
  // hoist; both tiers share it.
  return max_pool_q(in, l);
}

void KernelBackend::max_pool_into(const QTensor& in, const Layer& l,
                                  QTensor& out) {
  guard();
  max_pool_q_into(in, l, out);
}

QTensor KernelBackend::avg_pool(const QTensor& in, const Layer& l) {
  guard();
  // Single integer implementation (interior/border aware) for both tiers.
  return avg_pool_q(in, l);
}

void KernelBackend::avg_pool_into(const QTensor& in, const Layer& l,
                                  QTensor& out) {
  guard();
  // The reciprocal table depends only on the window size — cache it so
  // repeated runs stop paying its construction.
  const int count = l.kernel_h * l.kernel_w;
  auto it = avg_pool_tables_.find(count);
  if (it == avg_pool_tables_.end()) {
    it = avg_pool_tables_.emplace(count, AvgPoolMultipliers(count)).first;
  }
  avg_pool_q_into(in, l, it->second, out);
}

QTensor KernelBackend::global_avg_pool(const QTensor& in) {
  guard();
  return global_avg_pool_q(in);
}

void KernelBackend::global_avg_pool_into(const QTensor& in, QTensor& out) {
  guard();
  arena_.reset();
  global_avg_pool_q_into(
      in, arena_.i32(static_cast<std::size_t>(in.shape().c)), out);
}

QTensor KernelBackend::add(const QTensor& lhs, const QTensor& rhs,
                           Activation act, const QuantParams& out_params) {
  guard();
  return add_q(lhs, rhs, act, out_params);
}

void KernelBackend::add_into(const QTensor& lhs, const QTensor& rhs,
                             Activation act, QTensor& out) {
  guard();
  add_q_into(lhs, rhs, act, out, simd_);
}

QTensor KernelBackend::concat(std::span<const QTensor* const> inputs,
                              const QuantParams& out_params) {
  guard();
  return concat_q(inputs, out_params);
}

void KernelBackend::concat_into(std::span<const QTensor* const> inputs,
                                QTensor& out) {
  guard();
  concat_q_into(inputs, out);
}

QTensor KernelBackend::softmax(const QTensor& in,
                               const QuantParams& out_params) {
  guard();
  return softmax_q(in, out_params);
}

void KernelBackend::softmax_into(const QTensor& in, QTensor& out) {
  guard();
  // Same arithmetic chain as softmax_q (dequantize → softmax_f32 →
  // quantize), with the float detour living in arena scratch instead of
  // two heap tensors.
  QMCU_REQUIRE(out.shape() == in.shape(),
               "softmax: destination shape mismatch");
  arena_.reset();
  const std::size_t n = in.data().size();
  auto real_buf = arena_.f32(n);
  auto soft_buf = arena_.f32(n);
  Tensor real(in.shape(), std::span<float>(real_buf.data(), n));
  dequantize_into(in, real);
  Tensor soft(in.shape(), std::span<float>(soft_buf.data(), n));
  softmax_f32_into(real, soft);
  quantize_into(soft, out);
}

QTensor KernelBackend::requantize(const QTensor& q, const QuantParams& target) {
  guard();
  if (q.params() == target) return q;
  QTensor out(q.shape(), target);
  requantize_into(q, out);  // dispatches the Simd slice requantizer
  return out;
}

void KernelBackend::requantize_into(const QTensor& q, QTensor& out) {
  guard();
  if (simd_ != nullptr && simd_->requant_i8_row != nullptr &&
      !(q.params() == out.params())) {
    // Same ElementRequantizer construction and rounding chain as
    // requantize_q_into, lane-vectorized.
    QMCU_REQUIRE(out.shape() == q.shape(),
                 "requantize_q: destination shape mismatch");
    simd::RowRequantizer(q.params(), out.params(), simd_)(
        out.data().data(), q.data().data(),
        static_cast<std::int64_t>(q.data().size()));
    return;
  }
  requantize_q_into(q, out);
}

// ---------------------------------------------------------------------------
// Float tier.

void KernelBackend::conv2d_f32_into(const Tensor& in, const Layer& l,
                                    std::span<const float> weights,
                                    std::span<const float> bias, Tensor& out) {
  guard();
  if (tier_ == KernelTier::Reference) {
    ops::conv2d_f32_into(in, l, weights, bias, out);
    return;
  }
  const TensorShape& is = in.shape();
  const TensorShape os = conv_output_shape(is, l, l.out_channels);
  const int n = l.out_channels;
  const std::int64_t k64 = im2col_row_elements(is, l);
  QMCU_REQUIRE(static_cast<std::int64_t>(weights.size()) == k64 * n,
               "conv weight count mismatch");
  QMCU_REQUIRE(out.shape() == os, "conv2d_f32: destination shape mismatch");
  const int k = static_cast<int>(k64);
  arena_.reset();
  auto bt = arena_.f32(static_cast<std::size_t>(n) * k);
  pack_weights_kmajor_f32(weights, n, k, bt.data());
  float* y = out.data().data();
  // As in conv2d_into: a 1x1, stride-1, unpadded conv's NHWC input already
  // is the GEMM's A matrix, so the whole map is one GEMM with no im2col.
  if (l.kernel_h == 1 && l.kernel_w == 1 && l.stride_h == 1 &&
      l.stride_w == 1 && l.pad_h == 0 && l.pad_w == 0) {
    gemm_f32(in.data().data(), bt.data(), os.h * os.w, n, k, bias, l.act, y);
    return;
  }
  auto a = arena_.f32(static_cast<std::size_t>(os.w) * k);
  for (int oy = 0; oy < os.h; ++oy) {
    im2col_pack_row_f32(in.data(), is, l, oy, os.w, a.data());
    gemm_f32(a.data(), bt.data(), os.w, n, k, bias, l.act,
             y + static_cast<std::size_t>(oy) * os.w * n);
  }
}

Tensor KernelBackend::conv2d_f32(const Tensor& in, const Layer& l,
                                 std::span<const float> weights,
                                 std::span<const float> bias) {
  guard();
  Tensor out(conv_output_shape(in.shape(), l, l.out_channels));
  conv2d_f32_into(in, l, weights, bias, out);
  return out;
}

Tensor KernelBackend::depthwise_conv2d_f32(const Tensor& in, const Layer& l,
                                           std::span<const float> weights,
                                           std::span<const float> bias) {
  guard();
  Tensor out(conv_output_shape(in.shape(), l, in.shape().c));
  depthwise_conv2d_f32_into(in, l, weights, bias, out);
  return out;
}

void KernelBackend::depthwise_conv2d_f32_into(const Tensor& in, const Layer& l,
                                              std::span<const float> weights,
                                              std::span<const float> bias,
                                              Tensor& out) {
  guard();
  if (tier_ == KernelTier::Reference) {
    ops::depthwise_conv2d_f32_into(in, l, weights, bias, out);
    return;
  }
  depthwise_conv2d_f32_rows_into(in, l, weights, bias, out);
}

Tensor KernelBackend::fully_connected_f32(const Tensor& in, const Layer& l,
                                          std::span<const float> weights,
                                          std::span<const float> bias) {
  guard();
  Tensor out(TensorShape{1, 1, l.out_channels});
  fully_connected_f32_into(in, l, weights, bias, out);
  return out;
}

void KernelBackend::fully_connected_f32_into(const Tensor& in, const Layer& l,
                                             std::span<const float> weights,
                                             std::span<const float> bias,
                                             Tensor& out) {
  guard();
  if (tier_ == KernelTier::Reference) {
    ops::fully_connected_f32_into(in, l, weights, bias, out);
    return;
  }
  fully_connected_f32_interleaved_into(in, l, weights, bias, out);
}

}  // namespace qmcu::nn::ops
