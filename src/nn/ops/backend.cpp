#include "nn/ops/backend.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>

#include "nn/ops/float_kernels.h"
#include "nn/ops/gemm_int8.h"
#include "nn/ops/im2col.h"
#include "nn/ops/simd/simd_kernels.h"

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

// The im2col + GEMM conv body. `bt`/`wsum` come from
// KernelBackend::weight_panel; the arena must already be reset by the
// caller (the panel may live in it). Writes into the caller-bound `out`.
// `simd` routes the GEMM block + epilogue through the Simd tier's
// microkernels (null = scalar fallbacks; outputs identical either way).
void fast_conv2d_impl(ScratchArena& arena, const QTensor& in, const Layer& l,
                      std::span<const std::int8_t> bt,
                      std::span<const std::int32_t> wsum,
                      const QuantParams& wparams,
                      std::span<const std::int32_t> qbias,
                      std::span<const std::int32_t> pre_offset, QTensor& out,
                      const simd::SimdKernels* simd) {
  const TensorShape& is = in.shape();
  const QuantParams& ip = in.params();
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
  if (l.kernel_h == 1 && l.kernel_w == 1 && l.stride_h == 1 &&
      l.stride_w == 1 && l.pad_h == 0 && l.pad_w == 0) {
    // A 1x1, stride-1, unpadded conv reads each input pixel's channels as
    // its im2col row: the NHWC map already is the (h*w) x k A matrix, so
    // one GEMM covers every output pixel with no packing.
    gemm_int8_requant(in.data().data(), bt.data(), os.h * os.w, n, k, post,
                      acc.data(), y, simd);
    return;
  }
  const std::int8_t pad = static_cast<std::int8_t>(ip.zero_point);
  auto a = arena.i8(static_cast<std::size_t>(os.w) * k);
  for (int oy = 0; oy < os.h; ++oy) {
    im2col_pack_row(in.data(), is, l, oy, os.w, pad, a.data());
    gemm_int8_requant(a.data(), bt.data(), os.w, n, k, post, acc.data(),
                      y + static_cast<std::size_t>(oy) * os.w * n, simd);
  }
}

// The per-pixel depthwise loop of the tables without a dw_conv body (NEON,
// the scalar fallbacks): dw_accumulate per tap where the table has it,
// requant_i32_row per pixel. The arena must already be reset.
void depthwise_pixel_loop(ScratchArena& arena, const QTensor& in,
                          const Layer& l,
                          std::span<const std::int8_t> qweights,
                          std::span<const std::int32_t> qbias,
                          FixedPointMultiplier m, std::int32_t act_lo,
                          std::int32_t act_hi, QTensor& out,
                          const simd::SimdKernels* simd) {
  const TensorShape& is = in.shape();
  const TensorShape& os = out.shape();
  const int c = is.c;
  const QuantParams& out_params = out.params();
  const std::int32_t zp = in.params().zero_point;
  const std::int8_t* x = in.data().data();
  const std::int8_t* w = qweights.data();
  std::int8_t* y = out.data().data();

  const OutputInterior oy_int =
      output_interior(l.kernel_h, l.stride_h, l.pad_h, is.h, os.h);
  const OutputInterior ox_int =
      output_interior(l.kernel_w, l.stride_w, l.pad_w, is.w, os.w);

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

void KernelBackend::prepack(const Layer& l,
                            std::span<const std::int8_t> qweights) {
  if (!cache_weight_panels_ || tier_ == KernelTier::Reference ||
      qweights.empty()) {
    return;
  }
  const int n = l.out_channels;
  switch (l.kind) {
    case OpKind::Conv2D:
    case OpKind::FullyConnected:
      // fc runs the same k-major panel GEMM as conv.
      (void)weight_panel(qweights, n, static_cast<int>(qweights.size()) / n);
      return;
    case OpKind::DepthwiseConv2D:
      if (fused_depthwise(l, 0)) {
        (void)depthwise_panel(qweights, l.kernel_h, l.kernel_w,
                              static_cast<int>(qweights.size()) /
                                  (l.kernel_h * l.kernel_w));
      }
      return;
    default:
      return;
  }
}

KernelBackend::PanelView KernelBackend::depthwise_panel(
    std::span<const std::int8_t> qweights, int kernel_h, int kernel_w,
    int c) {
  const std::int64_t bytes =
      simd_->dw_pack(qweights.data(), kernel_h, kernel_w, c, nullptr);
  // 63 bytes of room to start the layout on a cache line (see DwConv).
  const auto build = [&](std::span<std::int8_t> room,
                         std::span<std::int32_t> wsum) {
    const std::size_t skip =
        (64 - reinterpret_cast<std::uintptr_t>(room.data()) % 64) % 64;
    const auto packed = room.subspan(skip, static_cast<std::size_t>(bytes));
    simd_->dw_pack(qweights.data(), kernel_h, kernel_w, c, packed.data());
    std::fill(wsum.begin(), wsum.end(), 0);
    for (int t = 0; t < kernel_h * kernel_w; ++t) {
      for (int ch = 0; ch < c; ++ch) {
        wsum[static_cast<std::size_t>(ch)] +=
            qweights[static_cast<std::size_t>(t) * c + ch];
      }
    }
    return PanelView{packed, wsum};
  };
  const std::size_t room = static_cast<std::size_t>(bytes) + 63;
  if (cache_weight_panels_) {
    DepthwisePanel& p = dw_panels_[qweights.data()];
    if (static_cast<int>(p.wsum.size()) != c || p.room.size() != room) {
      p.room.resize(room);
      p.wsum.resize(static_cast<std::size_t>(c));
      p.view = build(p.room, p.wsum);
    }
    return p.view;
  }
  return build(arena_.i8(room), arena_.i32(static_cast<std::size_t>(c)));
}

bool KernelBackend::fused_depthwise(const Layer& l, std::int32_t zp) const {
  return simd_ != nullptr && simd_->dw_conv != nullptr &&
         l.kernel_h * l.kernel_w <= simd::kDwMaxTaps &&
         l.stride_w <= simd::kDwMaxStride && zp >= -128 && zp <= 127;
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
  const int n = l.out_channels;
  const std::int64_t k = im2col_row_elements(in.shape(), l);
  QMCU_REQUIRE(static_cast<std::int64_t>(qweights.size()) == k * n,
               "conv weight count mismatch");
  arena_.reset();
  const PanelView w = weight_panel(qweights, n, static_cast<int>(k));
  fast_conv2d_impl(
      arena_, in, l, w.bt, w.wsum, wparams, qbias,
      offset_row(qweights.data(),
                 in.params().zero_point + simd::gemm_activation_bias(simd_),
                 qbias, n),
      out, simd_);
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
  const TensorShape& is = in.shape();
  const int c = is.c;
  const int taps = l.kernel_h * l.kernel_w;
  QMCU_REQUIRE(static_cast<std::int64_t>(qweights.size()) ==
                   static_cast<std::int64_t>(taps) * c,
               "dwconv weight count mismatch");
  QMCU_REQUIRE(out.shape() == conv_output_shape(is, l, c),
               "depthwise_conv2d: destination shape mismatch");
  const QuantParams& ip = in.params();
  const QuantParams& out_params = out.params();
  const FixedPointMultiplier m = quantize_multiplier(
      static_cast<double>(ip.scale) * wparams.scale / out_params.scale);
  const auto [act_lo, act_hi] = activation_range(l.act, out_params);
  arena_.reset();
  if (!fused_depthwise(l, ip.zero_point)) {
    depthwise_pixel_loop(arena_, in, l, qweights, qbias, m, act_lo, act_hi,
                         out, simd_);
    return;
  }
  const PanelView w = depthwise_panel(qweights, l.kernel_h, l.kernel_w, c);
  simd::DwConv p;
  p.x = in.data().data();
  p.in_h = is.h;
  p.in_w = is.w;
  p.c = c;
  p.kernel_h = l.kernel_h;
  p.kernel_w = l.kernel_w;
  p.stride_h = l.stride_h;
  p.stride_w = l.stride_w;
  p.pad_h = l.pad_h;
  p.pad_w = l.pad_w;
  p.out_h = out.shape().h;
  p.out_w = out.shape().w;
  p.w = w.bt.data();
  p.wsum = w.wsum.data();
  p.bias = qbias.empty() ? nullptr : qbias.data();
  p.zp = ip.zero_point;
  p.m = m;
  p.out_zp = out_params.zero_point;
  p.lo = act_lo;
  p.hi = act_hi;
  p.y = out.data().data();
  p.ring = arena_.i8(static_cast<std::size_t>(simd::dw_ring_bytes(p))).data();
  p.offset =
      arena_.i32(static_cast<std::size_t>(simd::dw_offset_lanes(c))).data();
  simd_->dw_conv(p);
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

void KernelBackend::max_pool_into(const QTensor& in, const Layer& l,
                                  QTensor& out) {
  guard();
  max_pool_q_into(in, l, out);
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

void KernelBackend::global_avg_pool_into(const QTensor& in, QTensor& out) {
  guard();
  arena_.reset();
  global_avg_pool_q_into(
      in, arena_.i32(static_cast<std::size_t>(in.shape().c)), out);
}

void KernelBackend::add_into(const QTensor& lhs, const QTensor& rhs,
                             Activation act, QTensor& out) {
  guard();
  add_q_into(lhs, rhs, act, out, simd_);
}

void KernelBackend::concat_into(std::span<const QTensor* const> inputs,
                                QTensor& out) {
  guard();
  concat_q_into(inputs, out);
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
