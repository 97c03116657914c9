// Kernel backend tier parity: the Simd tier (im2col + tiled GEMM,
// interior/border split kernels, over the runtime-dispatched AVX2/NEON
// microkernels) must be bit-identical to the Reference loop nests over
// randomized geometries, activations, and 2/4/8-bit weight/activation
// ranges — both on the table this process dispatches and on the scalar
// fallbacks, which each suite pins in process with QMCU_FORCE_SCALAR.
// Integer arithmetic makes this an exact contract, not a tolerance; the
// float conv, depthwise and fully-connected bodies keep every output's
// reference accumulation order, so they are exact too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "nn/ops/gemm_int8.h"
#include "nn/ops/simd/cpu_features.h"
#include "nn/ops/simd/simd_kernels.h"

#include "core/quantmcu.h"
#include "data/synthetic.h"
#include "kernel_values.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "nn/memory_planner.h"
#include "nn/ops/backend.h"
#include "nn/ops/float_kernels.h"
#include "nn/ops/im2col.h"
#include "nn/ops/int8_kernels.h"
#include "nn/rng.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "quant/bitpack.h"
#include "quant/calibration.h"
#include "scoped_env.h"

namespace qmcu::nn::ops {
namespace {

struct RandomCase {
  TensorShape in_shape;
  Layer layer;
  QuantParams in_params;
  QuantParams out_params;
  QuantParams wparams;
  std::vector<std::int8_t> qweights;
  std::vector<std::int32_t> qbias;
  QTensor qin;
};

// Draws a random quantized conv/dwconv/pool case. `weight_bits` and
// `act_bits` in {2, 4, 8} exercise the sub-byte ranges on int8 storage.
RandomCase random_case(nn::Rng& rng, OpKind kind, int weight_bits,
                       int act_bits) {
  RandomCase c;
  const int h = 4 + static_cast<int>(rng.uniform(0, 10));
  const int w = 4 + static_cast<int>(rng.uniform(0, 10));
  const int ch = 1 + static_cast<int>(rng.uniform(0, 23));
  c.in_shape = {h, w, ch};

  Layer& l = c.layer;
  l.kind = kind;
  const int k = 1 + 2 * static_cast<int>(rng.uniform(0, 3));  // 1, 3, 5
  l.kernel_h = l.kernel_w = std::min(k, std::min(h, w));
  l.stride_h = l.stride_w = 1 + static_cast<int>(rng.uniform(0, 2));
  l.pad_h = l.pad_w = static_cast<int>(rng.uniform(0, l.kernel_h));
  const Activation acts[] = {Activation::None, Activation::ReLU,
                             Activation::ReLU6};
  l.act = acts[static_cast<int>(rng.uniform(0, 3))];
  l.out_channels = kind == OpKind::Conv2D
                       ? 1 + static_cast<int>(rng.uniform(0, 39))
                       : ch;

  c.in_params = QuantParams{0.05f, static_cast<std::int32_t>(
                                       rng.uniform(-8, 8)),
                            act_bits};
  c.out_params =
      QuantParams{0.07f, static_cast<std::int32_t>(rng.uniform(-8, 8)), 8};
  c.wparams = QuantParams{0.02f, 0, weight_bits};

  c.qin = QTensor(c.in_shape, c.in_params);
  for (std::int8_t& v : c.qin.data()) {
    v = static_cast<std::int8_t>(
        rng.uniform(c.in_params.qmin(), c.in_params.qmax() + 1));
  }

  std::int64_t wcount = 0;
  if (kind == OpKind::Conv2D) {
    wcount = static_cast<std::int64_t>(l.out_channels) * l.kernel_h *
             l.kernel_w * ch;
  } else if (kind == OpKind::DepthwiseConv2D) {
    wcount = static_cast<std::int64_t>(l.kernel_h) * l.kernel_w * ch;
  }
  c.qweights.resize(static_cast<std::size_t>(wcount));
  for (std::int8_t& v : c.qweights) {
    v = static_cast<std::int8_t>(
        rng.uniform(c.wparams.qmin(), c.wparams.qmax() + 1));
  }
  if (wcount > 0 && rng.uniform() < 0.7) {
    c.qbias.resize(static_cast<std::size_t>(
        kind == OpKind::Conv2D ? l.out_channels : ch));
    for (std::int32_t& b : c.qbias) {
      b = static_cast<std::int32_t>(rng.uniform(-2000, 2000));
    }
  }
  return c;
}

using test::value_of;

// The output of MAC layer `l` (conv, depthwise or fully-connected) over
// `in` on `backend`.
QTensor mac_value(KernelBackend& backend, const QTensor& in, const Layer& l,
                  std::span<const std::int8_t> w, const QuantParams& wp,
                  std::span<const std::int32_t> bias,
                  const QuantParams& out_p) {
  switch (l.kind) {
    case OpKind::Conv2D:
      return value_of(
          backend, &KernelBackend::conv2d_into,
          QTensor(conv_output_shape(in.shape(), l, l.out_channels), out_p),
          in, l, w, wp, bias);
    case OpKind::DepthwiseConv2D:
      return value_of(
          backend, &KernelBackend::depthwise_conv2d_into,
          QTensor(conv_output_shape(in.shape(), l, in.shape().c), out_p), in,
          l, w, wp, bias);
    default:
      return value_of(backend, &KernelBackend::fully_connected_into,
                      QTensor(TensorShape{1, 1, l.out_channels}, out_p), in,
                      l, w, wp, bias);
  }
}

// The case's windowed MAC op over its own input.
QTensor mac_value(KernelBackend& backend, const RandomCase& c) {
  return mac_value(backend, c.qin, c.layer, c.qweights, c.wparams, c.qbias,
                   c.out_params);
}

void expect_q_identical(const QTensor& a, const QTensor& b,
                        const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(a.params(), b.params()) << what;
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    ASSERT_EQ(static_cast<int>(da[i]), static_cast<int>(db[i]))
        << what << " element " << i;
  }
}

// The two Simd-tier tables every suite below checks against Reference: the
// table this process dispatches, and the scalar fallbacks, pinned in
// process with QMCU_FORCE_SCALAR so every CI leg keeps a scalar reference.
// Dispatched goes first, so the binary's first ISA probe is unpinned.
enum class Table { Dispatched, Scalar };
constexpr Table kTables[] = {Table::Dispatched, Table::Scalar};

// Holds QMCU_FORCE_SCALAR for its lifetime when `t` is Table::Scalar.
struct TablePin {
  explicit TablePin(Table t) {
    if (t == Table::Scalar) env.emplace("QMCU_FORCE_SCALAR", "1");
  }
  std::optional<test::ScopedEnv> env;
};

// A Simd-tier backend on `t`'s table. The base order builds the pin first,
// and the pin lives as long as the backend.
class TableBackend : private TablePin, public KernelBackend {
 public:
  explicit TableBackend(Table t)
      : TablePin(t), KernelBackend(KernelTier::Simd) {
    if (t == Table::Scalar) {
      EXPECT_EQ(simd_kernels(), nullptr) << "QMCU_FORCE_SCALAR was not live";
    }
  }
};

TEST(KernelParity, Conv2dRandomizedBitExact) {
  nn::Rng rng(101);
  const int bit_options[] = {2, 4, 8};
  for (int trial = 0; trial < 60; ++trial) {
    const int wb = bit_options[trial % 3];
    const int ab = bit_options[(trial / 3) % 3];
    const RandomCase c = random_case(rng, OpKind::Conv2D, wb, ab);
    KernelBackend ref(KernelTier::Reference);
    const QTensor a = mac_value(ref, c);
    for (const Table t : kTables) {
      TableBackend backend(t);
      const QTensor b = mac_value(backend, c);
      expect_q_identical(a, b,
                         t == Table::Scalar ? "conv2d-scalar" : "conv2d-simd");
    }
  }
}

TEST(KernelParity, DepthwiseRandomizedBitExact) {
  nn::Rng rng(202);
  const int bit_options[] = {2, 4, 8};
  for (int trial = 0; trial < 40; ++trial) {
    const RandomCase c = random_case(rng, OpKind::DepthwiseConv2D,
                                     bit_options[trial % 3],
                                     bit_options[(trial / 3) % 3]);
    KernelBackend ref(KernelTier::Reference);
    const QTensor a = mac_value(ref, c);
    for (const Table t : kTables) {
      TableBackend backend(t);
      expect_q_identical(
          a, mac_value(backend, c),
          t == Table::Scalar ? "depthwise-scalar" : "depthwise-simd");
    }
    // Without the panel cache the dw_conv weight layout is built in the
    // scratch arena on every call.
    KernelBackend uncached(KernelTier::Simd, /*cache_weight_panels=*/false);
    expect_q_identical(a, mac_value(uncached, c), "depthwise-uncached");
  }
}

TEST(KernelParity, FullyConnectedRandomizedBitExact) {
  nn::Rng rng(303);
  for (int trial = 0; trial < 30; ++trial) {
    const int features = 3 + static_cast<int>(rng.uniform(0, 120));
    const int out_c = 1 + static_cast<int>(rng.uniform(0, 22));
    Layer l;
    l.kind = OpKind::FullyConnected;
    l.out_channels = out_c;
    const QuantParams in_p{0.04f, 3, 8};
    const QuantParams out_p{0.1f, -2, 8};
    const QuantParams wp{0.015f, 0, 8};
    QTensor qin(TensorShape{1, 1, features}, in_p);
    for (std::int8_t& v : qin.data()) {
      v = static_cast<std::int8_t>(rng.uniform(-128, 128));
    }
    std::vector<std::int8_t> w(static_cast<std::size_t>(features) * out_c);
    for (std::int8_t& v : w) {
      v = static_cast<std::int8_t>(rng.uniform(-128, 128));
    }
    std::vector<std::int32_t> bias(static_cast<std::size_t>(out_c));
    for (std::int32_t& b : bias) {
      b = static_cast<std::int32_t>(rng.uniform(-3000, 3000));
    }
    KernelBackend ref(KernelTier::Reference);
    const QTensor a = mac_value(ref, qin, l, w, wp, bias, out_p);
    for (const Table t : kTables) {
      TableBackend backend(t);
      expect_q_identical(a, mac_value(backend, qin, l, w, wp, bias, out_p),
                         "fc");
    }
  }
}

TEST(KernelParity, PoolsRandomizedBitExact) {
  nn::Rng rng(404);
  for (int trial = 0; trial < 30; ++trial) {
    const RandomCase c = random_case(rng, OpKind::MaxPool, 8, 8);
    const QTensor pooled(conv_output_shape(c.in_shape, c.layer, c.in_shape.c),
                         c.in_params);
    const QTensor global(TensorShape{1, 1, c.in_shape.c}, c.in_params);
    KernelBackend ref(KernelTier::Reference);
    for (const Table t : kTables) {
      TableBackend backend(t);
      const auto pools = [&](KernelBackend& b) {
        return std::vector<QTensor>{
            value_of(b, &KernelBackend::max_pool_into, pooled, c.qin,
                     c.layer),
            value_of(b, &KernelBackend::avg_pool_into, pooled, c.qin,
                     c.layer),
            value_of(b, &KernelBackend::global_avg_pool_into, global, c.qin)};
      };
      const std::vector<QTensor> want = pools(ref);
      const std::vector<QTensor> got = pools(backend);
      expect_q_identical(want[0], got[0], "max_pool");
      expect_q_identical(want[1], got[1], "avg_pool");
      expect_q_identical(want[2], got[2], "global_avg_pool");
    }
  }
}

// --- Dot-product GEMM generation -------------------------------------------
// The AVX-VNNI / NEON sdot gemm_block_i8 bodies retire 4 k-elements per
// int32 lane. VNNI's vpdpbusd is u8×s8, so that table biases activations by
// +128 (gemm_a_bias) and the backend folds the -128·Σw correction into the
// offset row; sdot is s8×s8 and needs no bias. Both must reproduce the
// scalar accumulator bit-exactly. QMCU_FORCE_NO_DOT is read live, so one
// process can pin the pair-madd generation and compare.

// Direct pinned-table check against the documented contract
//   acc[r*n+j] = Σ_k (a[r*k+kk] + gemm_a_bias) · bt[kk*n+j]
// over ragged shapes: column tails < 16 and < 8, odd k, k % 4 tails, k < 4
// (a single partly-filled dot group), and saturating ±extreme operands.
TEST(KernelParity, DotGemmBlockMatchesContract) {
  const simd::SimdKernels* table = nullptr;
  switch (simd::detected_dot_isa()) {
    case simd::DotIsa::AvxVnni:
      table = simd::avx2_vnni_kernels();
      break;
    case simd::DotIsa::NeonDot:
      table = simd::neon_dot_kernels();
      break;
    case simd::DotIsa::None:
      break;
  }
  if (table == nullptr) {
    GTEST_SKIP() << "no dot-product generation on this host (probe "
                 << simd::dot_isa_name(simd::detected_dot_isa()) << ")";
  }
  ASSERT_TRUE(table->gemm_dot);
  ASSERT_NE(table->gemm_block_i8, nullptr);
  nn::Rng rng(2323);
  for (int trial = 0; trial < 80; ++trial) {
    const int rows = 1 + static_cast<int>(rng.uniform(0, 4));
    const int n = 1 + static_cast<int>(rng.uniform(0, 70));
    const int k = 1 + static_cast<int>(rng.uniform(0, 90));
    std::vector<std::int8_t> a(static_cast<std::size_t>(rows) * k);
    std::vector<std::int8_t> w(static_cast<std::size_t>(n) * k);
    if (trial % 7 == 0) {
      // Saturating extremes: the largest per-group magnitudes vpdpbusd and
      // sdot can see (255·127 and 128·128 products).
      for (auto& v : a) v = rng.uniform() < 0.5 ? -128 : 127;
      for (auto& v : w) v = rng.uniform() < 0.5 ? -128 : 127;
    } else {
      for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform(-128, 128));
      for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform(-128, 128));
    }
    std::vector<std::int8_t> bt(w.size());
    pack_weights_kmajor(w, n, k, bt.data());
    std::vector<std::int32_t> acc(static_cast<std::size_t>(rows) * n, -7);
    table->gemm_block_i8(a.data(), bt.data(), rows, n, k, acc.data());
    for (int r = 0; r < rows; ++r) {
      for (int j = 0; j < n; ++j) {
        std::int32_t want = 0;
        for (int kk = 0; kk < k; ++kk) {
          want += (static_cast<std::int32_t>(
                       a[static_cast<std::size_t>(r) * k + kk]) +
                   table->gemm_a_bias) *
                  w[static_cast<std::size_t>(j) * k + kk];
        }
        ASSERT_EQ(acc[static_cast<std::size_t>(r) * n + j], want)
            << "rows=" << rows << " n=" << n << " k=" << k << " r=" << r
            << " j=" << j;
      }
    }
  }
}

// fc shape ladder through the m == 1 panel microkernel: k below one dot
// group (k < 4), below the 16-wide panel, odd k, and past the panel width,
// across every weight/activation bit mode with and without bias — both
// tables against Reference, once with the dot generation active and once
// demoted to pair-madd (the backend snapshots the table at construction, so
// the guard wraps construction).
TEST(KernelParity, FullyConnectedLadderBitExact) {
  nn::Rng rng(2424);
  const int ks[] = {1, 2, 3, 5, 7, 12, 15, 16, 17, 31, 33, 64, 127};
  const int bit_options[] = {2, 4, 8};
  for (int pass = 0; pass < 2; ++pass) {
    std::optional<test::ScopedEnv> no_dot;
    if (pass == 1) no_dot.emplace("QMCU_FORCE_NO_DOT", "1");
    int trial = 0;
    for (const int k : ks) {
      const int wb = bit_options[trial % 3];
      const int ab = bit_options[(trial / 3) % 3];
      ++trial;
      const int out_c = 1 + static_cast<int>(rng.uniform(0, 40));
      Layer l;
      l.kind = OpKind::FullyConnected;
      l.out_channels = out_c;
      QuantParams in_p{0.04f, 0, ab};
      in_p.zero_point =
          static_cast<std::int32_t>(rng.uniform(in_p.qmin(), in_p.qmax() + 1));
      const QuantParams out_p{
          0.1f, static_cast<std::int32_t>(rng.uniform(-8, 8)), 8};
      const QuantParams wp{0.015f, 0, wb};
      QTensor qin(TensorShape{1, 1, k}, in_p);
      for (std::int8_t& v : qin.data()) {
        v = static_cast<std::int8_t>(
            rng.uniform(in_p.qmin(), in_p.qmax() + 1));
      }
      std::vector<std::int8_t> w(static_cast<std::size_t>(k) * out_c);
      for (std::int8_t& v : w) {
        v = static_cast<std::int8_t>(rng.uniform(wp.qmin(), wp.qmax() + 1));
      }
      std::vector<std::int32_t> bias;
      if (trial % 2 == 0) {
        bias.resize(static_cast<std::size_t>(out_c));
        for (std::int32_t& b : bias) {
          b = static_cast<std::int32_t>(rng.uniform(-3000, 3000));
        }
      }
      KernelBackend ref(KernelTier::Reference);
      const QTensor want = mac_value(ref, qin, l, w, wp, bias, out_p);
      for (const Table t : kTables) {
        TableBackend backend(t);
        expect_q_identical(want,
                           mac_value(backend, qin, l, w, wp, bias, out_p),
                           pass == 1 ? "fc-ladder-nodot" : "fc-ladder");
      }
    }
  }
}

// The VNNI bias-correction fold under zero-point extremes: a_zp = zp + 128
// spans 0..255, and a sign mistake in the u8 bias or the folded -128·Σw
// term shows immediately at the ±128/±127 corners. conv exercises the same
// fold through the padded im2col path.
TEST(KernelParity, DotGenerationZeroPointBitExact) {
  nn::Rng rng(2525);
  const std::int32_t zps[] = {-128, -100, -8, -1, 0, 1, 7, 100, 127};
  for (int pass = 0; pass < 2; ++pass) {
    std::optional<test::ScopedEnv> no_dot;
    if (pass == 1) no_dot.emplace("QMCU_FORCE_NO_DOT", "1");
    for (const std::int32_t zp : zps) {
      // fc: saturating activations/weights on even trials.
      const int k = 5 + static_cast<int>(rng.uniform(0, 90));
      const int out_c = 1 + static_cast<int>(rng.uniform(0, 30));
      Layer l;
      l.kind = OpKind::FullyConnected;
      l.out_channels = out_c;
      const QuantParams in_p{0.04f, zp, 8};
      const QuantParams out_p{0.1f, -2, 8};
      const QuantParams wp{0.015f, 0, 8};
      QTensor qin(TensorShape{1, 1, k}, in_p);
      const bool saturate = zp % 2 == 0;
      for (std::int8_t& v : qin.data()) {
        v = saturate ? (rng.uniform() < 0.5 ? -128 : 127)
                     : static_cast<std::int8_t>(rng.uniform(-128, 128));
      }
      std::vector<std::int8_t> w(static_cast<std::size_t>(k) * out_c);
      for (std::int8_t& v : w) {
        v = saturate ? (rng.uniform() < 0.5 ? -128 : 127)
                     : static_cast<std::int8_t>(rng.uniform(-128, 128));
      }
      KernelBackend ref(KernelTier::Reference);
      const QTensor want = mac_value(ref, qin, l, w, wp, {}, out_p);
      for (const Table t : kTables) {
        TableBackend backend(t);
        expect_q_identical(want, mac_value(backend, qin, l, w, wp, {}, out_p),
                           "fc-zp");
      }

      // conv: zero-point padding flows through the same offset fold.
      RandomCase c = random_case(rng, OpKind::Conv2D, 8, 8);
      c.in_params.zero_point = zp;
      QTensor cin(c.in_shape, c.in_params);
      std::copy(c.qin.data().begin(), c.qin.data().end(), cin.data().begin());
      const QTensor cwant = mac_value(ref, cin, c.layer, c.qweights,
                                      c.wparams, c.qbias, c.out_params);
      for (const Table t : kTables) {
        TableBackend backend(t);
        expect_q_identical(cwant,
                           mac_value(backend, cin, c.layer, c.qweights,
                                     c.wparams, c.qbias, c.out_params),
                           "conv-zp");
      }
    }
  }
}

// The Simd slice requantizer (ElementRequantizer row kernel) must round
// exactly like the scalar loop across scale ratios above and below 1,
// shifted zero points, and sub-byte targets.
TEST(KernelParity, RequantizeRandomizedBitExact) {
  nn::Rng rng(808);
  const int bit_options[] = {2, 4, 8};
  for (int trial = 0; trial < 60; ++trial) {
    const int h = 1 + static_cast<int>(rng.uniform(0, 12));
    const int w = 1 + static_cast<int>(rng.uniform(0, 12));
    const int ch = 1 + static_cast<int>(rng.uniform(0, 33));
    const QuantParams in_p{
        static_cast<float>(rng.uniform(0.01, 0.2)),
        static_cast<std::int32_t>(rng.uniform(-20, 20)),
        bit_options[trial % 3]};
    const QuantParams out_p{
        static_cast<float>(rng.uniform(0.01, 0.2)),
        static_cast<std::int32_t>(rng.uniform(-20, 20)),
        bit_options[(trial / 3) % 3]};
    QTensor qin(TensorShape{h, w, ch}, in_p);
    for (std::int8_t& v : qin.data()) {
      v = static_cast<std::int8_t>(
          rng.uniform(in_p.qmin(), in_p.qmax() + 1));
    }
    const QTensor dst(qin.shape(), out_p);
    KernelBackend ref(KernelTier::Reference);
    const QTensor a =
        value_of(ref, &KernelBackend::requantize_into, dst, qin);
    for (const Table t : kTables) {
      TableBackend backend(t);
      expect_q_identical(a,
                         value_of(backend, &KernelBackend::requantize_into,
                                  dst, qin),
                         t == Table::Scalar ? "requantize-scalar"
                                            : "requantize-simd");
    }
  }
}

// The Simd unpack body (AVX2/NEON whole-byte expander) and the scalar loop
// against a straight per-field decode of the bitpack wire format, over
// randomized [first, first + count) windows so the head/vector-body/tail
// splits all get exercised. The table is passed explicitly — the caller's
// tier decides which body runs, never a global.
TEST(KernelParity, UnpackIntoMatchesFieldDecode) {
  nn::Rng rng(909);
  for (int trial = 0; trial < 40; ++trial) {
    const int bits = trial % 2 == 0 ? 4 : 2;
    const int per_byte = 8 / bits;
    const std::int64_t total = 64 + static_cast<std::int64_t>(
                                        rng.uniform(0, 2000));
    std::vector<std::int8_t> values(static_cast<std::size_t>(total));
    const int lo = -(1 << (bits - 1));
    const int hi = (1 << (bits - 1)) - 1;
    for (auto& v : values) {
      v = static_cast<std::int8_t>(rng.uniform(lo, hi + 1));
    }
    const std::vector<std::uint8_t> packed = quant::pack(values, bits);

    const std::int64_t first = static_cast<std::int64_t>(
        rng.uniform(0, static_cast<double>(total)));
    const std::int64_t count = static_cast<std::int64_t>(
        rng.uniform(0, static_cast<double>(total - first + 1)));
    for (const simd::SimdKernels* table :
         {static_cast<const simd::SimdKernels*>(nullptr), simd::kernels()}) {
      std::vector<std::int8_t> got(static_cast<std::size_t>(count), 99);
      quant::unpack_into(packed, first, count, bits, got.data(), table);
      for (std::int64_t i = 0; i < count; ++i) {
        // Independent field decode straight off the wire bytes.
        const std::int64_t e = first + i;
        const std::uint8_t byte =
            packed[static_cast<std::size_t>(e / per_byte)];
        std::uint8_t raw = static_cast<std::uint8_t>(
            (byte >> (static_cast<int>(e % per_byte) * bits)) &
            ((1u << bits) - 1));
        if (raw & (1u << (bits - 1))) {
          raw = static_cast<std::uint8_t>(raw | ~((1u << bits) - 1));
        }
        ASSERT_EQ(static_cast<int>(got[static_cast<std::size_t>(i)]),
                  static_cast<int>(static_cast<std::int8_t>(raw)))
            << "bits " << bits << " element " << i << " table "
            << (table != nullptr ? table->name : "scalar") << " (isa "
            << simd::isa_name(simd::detected_isa()) << ")";
      }
    }
  }
}

// The cache-blocked k-major transpose must produce byte-identical panels
// (and f32 panels) to the naive row-by-row transpose, including ragged
// edges where n or k is not a multiple of the 16-wide tile.
TEST(KernelParity, BlockedWeightPackIdenticalPanels) {
  nn::Rng rng(1010);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform(0, 70));
    const int k = 1 + static_cast<int>(rng.uniform(0, 70));
    std::vector<std::int8_t> b(static_cast<std::size_t>(n) * k);
    for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform(-128, 128));
    std::vector<float> bf(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
      bf[i] = static_cast<float>(rng.normal(0.0, 1.0));
    }

    std::vector<std::int8_t> bt(b.size(), 0);
    pack_weights_kmajor(b, n, k, bt.data());
    std::vector<float> btf(b.size(), 0.0f);
    pack_weights_kmajor_f32(bf, n, k, btf.data());
    for (int row = 0; row < n; ++row) {
      for (int kk = 0; kk < k; ++kk) {
        const std::size_t dst = static_cast<std::size_t>(kk) * n + row;
        const std::size_t src = static_cast<std::size_t>(row) * k + kk;
        ASSERT_EQ(bt[dst], b[src]) << "n=" << n << " k=" << k;
        ASSERT_EQ(btf[dst], bf[src]) << "n=" << n << " k=" << k;
      }
    }
  }
}

// Float outputs compared as bit patterns: == would let +0/-0 differ.
void expect_bits_identical(const Tensor& want, const Tensor& got,
                           const std::string& what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  for (std::size_t i = 0; i < want.data().size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want.data()[i]),
              std::bit_cast<std::uint32_t>(got.data()[i]))
        << what << " element " << i << ": " << want.data()[i] << " vs "
        << got.data()[i];
  }
}

Tensor random_f32(nn::Rng& rng, TensorShape s) {
  Tensor t(s);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

std::vector<float> random_f32s(nn::Rng& rng, std::size_t n, double sd) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, sd));
  return v;
}

constexpr Activation kActs[] = {Activation::None, Activation::ReLU,
                                Activation::ReLU6};

// Every third trial is a 1x1, stride-1, unpadded conv: the whole map is
// then one GEMM without im2col.
TEST(KernelParity, FloatConvBitExact) {
  nn::Rng rng(606);
  for (int trial = 0; trial < 36; ++trial) {
    const int h = 4 + static_cast<int>(rng.uniform(0, 10));
    const int w = 4 + static_cast<int>(rng.uniform(0, 10));
    const int ch = 1 + static_cast<int>(rng.uniform(0, 15));
    const int out_c = 1 + static_cast<int>(rng.uniform(0, 39));
    Layer l;
    l.kind = OpKind::Conv2D;
    l.kernel_h = l.kernel_w = 1 + 2 * static_cast<int>(rng.uniform(0, 2));
    l.stride_h = l.stride_w = 1 + static_cast<int>(rng.uniform(0, 2));
    l.pad_h = l.pad_w = static_cast<int>(rng.uniform(0, l.kernel_h));
    if (trial % 3 == 0) {
      l.kernel_h = l.kernel_w = l.stride_h = l.stride_w = 1;
      l.pad_h = l.pad_w = 0;
    }
    l.out_channels = out_c;
    l.act = kActs[trial % 3 == 0 ? (trial / 3) % 3 : 1];
    const Tensor in = random_f32(rng, TensorShape{h, w, ch});
    const std::vector<float> weights = random_f32s(
        rng, static_cast<std::size_t>(out_c) * l.kernel_h * l.kernel_w * ch,
        0.2);
    std::vector<float> bias(trial % 4 == 3 ? 0
                                           : static_cast<std::size_t>(out_c));
    for (float& v : bias) v = static_cast<float>(rng.uniform(-0.3, 0.3));

    KernelBackend simd(KernelTier::Simd);
    const Tensor want = conv2d_f32(in, l, weights, bias);
    expect_bits_identical(want,
                          value_of(simd, &KernelBackend::conv2d_f32_into,
                                   Tensor(want.shape()), in, l, weights, bias),
                          "conv trial " + std::to_string(trial));
  }
}

// The Simd depthwise walks channels innermost, seeding each pixel's row
// with the bias and adding the in-bounds taps in (ky, kx) order. Channel
// counts below, at and above one vector; both strides; padding that
// differs per axis, and windows clipped on every border.
TEST(KernelParity, FloatDepthwiseBitExact) {
  nn::Rng rng(1919);
  struct Geometry {
    int kh, kw, sh, sw, ph, pw;
  };
  const Geometry geometries[] = {{3, 3, 1, 1, 1, 1}, {3, 3, 2, 2, 1, 1},
                                 {3, 3, 1, 2, 1, 0}, {5, 5, 2, 1, 2, 1},
                                 {3, 5, 1, 1, 0, 2}, {1, 1, 1, 1, 0, 0},
                                 {7, 7, 2, 2, 3, 3}};
  int trial = 0;
  for (const int ch : {1, 3, 8, 17}) {
    for (const Geometry& geo : geometries) {
      for (const Activation act : kActs) {
        for (const bool with_bias : {true, false}) {
          Layer l;
          l.kind = OpKind::DepthwiseConv2D;
          l.kernel_h = geo.kh;
          l.kernel_w = geo.kw;
          l.stride_h = geo.sh;
          l.stride_w = geo.sw;
          l.pad_h = geo.ph;
          l.pad_w = geo.pw;
          l.act = act;
          l.out_channels = ch;
          const int h = 5 + static_cast<int>(rng.uniform(0, 6));
          const int w = 5 + static_cast<int>(rng.uniform(0, 6));
          const Tensor in = random_f32(rng, TensorShape{h, w, ch});
          const std::vector<float> weights = random_f32s(
              rng, static_cast<std::size_t>(geo.kh) * geo.kw * ch, 0.4);
          const std::vector<float> bias =
              with_bias ? random_f32s(rng, static_cast<std::size_t>(ch), 0.3)
                        : std::vector<float>{};
          KernelBackend simd(KernelTier::Simd);
          const Tensor want = depthwise_conv2d_f32(in, l, weights, bias);
          const std::string what = "dw trial " + std::to_string(trial++);
          expect_bits_identical(
              want,
              value_of(simd, &KernelBackend::depthwise_conv2d_f32_into,
                       Tensor(want.shape()), in, l, weights, bias),
              what);
        }
      }
    }
  }
}

// The Simd fully-connected runs eight outputs per pass over the input;
// output counts off that interleave leave a one-at-a-time tail.
TEST(KernelParity, FloatFullyConnectedBitExact) {
  nn::Rng rng(2020);
  int trial = 0;
  for (const int out_c : {1, 7, 8, 9, 13, 16, 17, 31}) {
    for (const int in_features : {1, 5, 64, 203}) {
      for (const Activation act : kActs) {
        Layer l;
        l.kind = OpKind::FullyConnected;
        l.out_channels = out_c;
        l.act = act;
        const Tensor in = random_f32(rng, TensorShape{1, 1, in_features});
        const std::vector<float> weights = random_f32s(
            rng, static_cast<std::size_t>(out_c) * in_features, 0.1);
        const std::vector<float> bias =
            trial % 2 == 0
                ? random_f32s(rng, static_cast<std::size_t>(out_c), 0.3)
                : std::vector<float>{};
        KernelBackend simd(KernelTier::Simd);
        const Tensor want = fully_connected_f32(in, l, weights, bias);
        const std::string what = "fc trial " + std::to_string(trial++);
        expect_bits_identical(
            want,
            value_of(simd, &KernelBackend::fully_connected_f32_into,
                     Tensor(want.shape()), in, l, weights, bias),
            what);
      }
    }
  }
}

// Every feature map of every zoo model, Simd against Reference, as bit
// patterns. Calibration and the planner's entropy profiles read these maps
// from the Simd tier.
TEST(Executor, SimdRunAllEqualsReferenceOnZooModels) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 64;
  cfg.num_classes = 10;
  nn::Rng rng(2121);
  for (const std::string& name : models::model_names()) {
    const Graph g = models::make_model(name, cfg);
    const Tensor in = random_f32(rng, g.shape(0));
    const std::vector<Tensor> want =
        Executor(g, KernelTier::Reference).run_all(in);
    const std::vector<Tensor> got = Executor(g, KernelTier::Simd).run_all(in);
    ASSERT_EQ(want.size(), got.size()) << name;
    for (std::size_t id = 0; id < want.size(); ++id) {
      expect_bits_identical(want[id], got[id],
                            name + " layer " + std::to_string(id) + " (" +
                                g.layer(static_cast<int>(id)).name + ")");
    }
  }
}

// --- Element-wise row kernels ----------------------------------------------
// requant_i32_row, requant_i8_row and add_row run 16 lanes, then one 8-lane
// step, then a scalar tail; every n in 1..40 covers each split. Multipliers
// whose right shift falls outside [0, 31] take the scalar loop for the whole
// row, so each suite also draws one. The table under test is the detected
// one (null under QMCU_FORCE_SCALAR: the dispatchers then run the scalar
// bodies, and the suites still check those against the Reference tier).

struct RowCase {
  QuantParams in_p;
  QuantParams in2_p;
  QuantParams out_p;
  Activation act = Activation::None;
};

RowCase random_row_case(nn::Rng& rng, bool huge_multiplier) {
  const Activation acts[] = {Activation::None, Activation::ReLU,
                             Activation::ReLU6};
  RowCase c;
  c.in_p = {static_cast<float>(rng.uniform(0.005, 0.3)),
            static_cast<std::int32_t>(rng.uniform(-30, 30)), 8};
  c.in2_p = {static_cast<float>(rng.uniform(0.005, 0.3)),
             static_cast<std::int32_t>(rng.uniform(-30, 30)), 8};
  // An output scale far below the inputs' pushes the final multiplier
  // above 1: a negative right shift.
  c.out_p = {huge_multiplier ? 1e-9f
                             : static_cast<float>(rng.uniform(0.005, 0.3)),
             static_cast<std::int32_t>(rng.uniform(-30, 30)), 8};
  c.act = acts[static_cast<int>(rng.uniform(0, 3))];
  return c;
}

QTensor random_row(nn::Rng& rng, int n, const QuantParams& p) {
  QTensor t(TensorShape{1, n, 1}, p);
  for (std::int8_t& v : t.data()) {
    v = static_cast<std::int8_t>(rng.uniform(-128, 128));
  }
  return t;
}

TEST(KernelParity, AddRowMatchesReferenceForEveryTail) {
  nn::Rng rng(1212);
  const simd::SimdKernels* table = simd::kernels();
  for (int n = 1; n <= 40; ++n) {
    for (int trial = 0; trial < 6; ++trial) {
      const RowCase c = random_row_case(rng, trial == 0);
      const QTensor a = random_row(rng, n, c.in_p);
      const QTensor b = random_row(rng, n, c.in2_p);
      KernelBackend ref(KernelTier::Reference);
      QTensor want(a.shape(), c.out_p);
      ref.add_into(a, b, c.act, want);

      const AddMultipliers m =
          add_multipliers(c.in_p.scale, c.in2_p.scale, c.out_p.scale);
      if (trial == 0) {
        ASSERT_LT(m.out.right_shift, 0);
      }
      const auto [lo, hi] = activation_range(c.act, c.out_p);
      QTensor got(a.shape(), c.out_p);
      simd::run_add_row(table, a.data().data(), b.data().data(), n,
                        c.in_p.zero_point, c.in2_p.zero_point, m,
                        c.out_p.zero_point, lo, hi, got.data().data());
      expect_q_identical(want, got, "add_row");
      for (const Table t : kTables) {
        TableBackend backend(t);
        QTensor via_backend(a.shape(), c.out_p);
        backend.add_into(a, b, c.act, via_backend);
        expect_q_identical(want, via_backend, "add_into");
      }
    }
  }
}

TEST(KernelParity, RequantI32RowMatchesReferenceForEveryTail) {
  nn::Rng rng(1313);
  const simd::SimdKernels* table = simd::kernels();
  if (table == nullptr || table->requant_i32_row == nullptr) {
    GTEST_SKIP() << "no SIMD table (isa "
                 << simd::isa_name(simd::detected_isa()) << ")";
  }
  for (int n = 1; n <= 40; ++n) {
    for (int trial = 0; trial < 6; ++trial) {
      const RowCase c = random_row_case(rng, false);
      // trial 0: a multiplier above 1 (negative right shift).
      const FixedPointMultiplier m = quantize_multiplier(
          trial == 0 ? rng.uniform(1.5, 6.0) : rng.uniform(1e-5, 0.9));
      if (trial == 0) {
        ASSERT_LT(m.right_shift, 0);
      }
      const auto [lo, hi] = activation_range(c.act, c.out_p);
      std::vector<std::int32_t> acc(static_cast<std::size_t>(n));
      std::vector<std::int32_t> offset(static_cast<std::size_t>(n));
      for (std::size_t j = 0; j < acc.size(); ++j) {
        acc[j] = static_cast<std::int32_t>(rng.uniform(-1 << 22, 1 << 22));
        offset[j] = static_cast<std::int32_t>(rng.uniform(-5000, 5000));
      }
      const bool with_offset = trial % 2 == 1;
      std::vector<std::int8_t> want(acc.size());
      for (std::size_t j = 0; j < acc.size(); ++j) {
        const std::int32_t total = acc[j] + (with_offset ? offset[j] : 0);
        want[j] = static_cast<std::int8_t>(
            clamp_to(apply_multiplier(total, m) + c.out_p.zero_point, lo, hi));
      }
      std::vector<std::int8_t> got(acc.size(), 99);
      table->requant_i32_row(acc.data(), with_offset ? offset.data() : nullptr,
                             n, m, c.out_p.zero_point, lo, hi, got.data());
      for (int j = 0; j < n; ++j) {
        ASSERT_EQ(static_cast<int>(want[static_cast<std::size_t>(j)]),
                  static_cast<int>(got[static_cast<std::size_t>(j)]))
            << "n " << n << " lane " << j << " shift " << m.right_shift
            << " table " << table->name;
      }
    }
  }
}

TEST(KernelParity, RequantI8RowMatchesReferenceForEveryTail) {
  nn::Rng rng(1414);
  const simd::SimdKernels* table = simd::kernels();
  for (int n = 1; n <= 40; ++n) {
    for (int trial = 0; trial < 6; ++trial) {
      const RowCase c = random_row_case(rng, false);
      const QTensor in = random_row(rng, n, c.in_p);
      const auto [lo, hi] = activation_range(c.act, c.out_p);
      if (trial == 0) {
        // The contract with an explicit multiplier above 1 (negative right
        // shift) against the scalar body the Reference tier runs.
        const FixedPointMultiplier m = quantize_multiplier(3.25);
        ASSERT_LT(m.right_shift, 0);
        std::vector<std::int8_t> want(static_cast<std::size_t>(n));
        std::vector<std::int8_t> got(static_cast<std::size_t>(n), 99);
        requant_i8_row_scalar(in.data().data(), n, c.in_p.zero_point, 2, m,
                              c.out_p.zero_point, lo, hi, want.data());
        simd::run_requant_i8_row(table, in.data().data(), n,
                                 c.in_p.zero_point, 2, m, c.out_p.zero_point,
                                 lo, hi, got.data());
        ASSERT_EQ(want, got) << "n " << n;
        continue;
      }
      // Random scales through the Reference tier's slice requantizer, with
      // the activation clamp applied on top of the target's range.
      const ElementRequantizer r(static_cast<double>(c.in_p.scale) /
                                 static_cast<double>(c.out_p.scale));
      KernelBackend ref(KernelTier::Reference);
      const QTensor full = value_of(ref, &KernelBackend::requantize_into,
                                    QTensor(in.shape(), c.out_p), in);
      QTensor got(in.shape(), c.out_p);
      simd::run_requant_i8_row(table, in.data().data(), n, c.in_p.zero_point,
                               r.left_shift(), r.multiplier(),
                               c.out_p.zero_point, lo, hi, got.data().data());
      for (int j = 0; j < n; ++j) {
        const int want = std::clamp<int>(
            full.data()[static_cast<std::size_t>(j)], lo, hi);
        ASSERT_EQ(want, static_cast<int>(got.data()[static_cast<std::size_t>(j)]))
            << "n " << n << " lane " << j;
      }
    }
  }
}

// --- Fused output stages ---------------------------------------------------
// gemm_requant and dw_conv keep their accumulators in registers through
// the requantize lanes. Each is checked, for every table this host can
// run, against its unfused twin: gemm_block_i8 plus the scalar requantize,
// and a scalar depthwise loop.

// The base and dot tables the running CPU can execute; empty under
// QMCU_FORCE_SCALAR or on hosts without a usable ISA.
std::vector<const simd::SimdKernels*> host_tables() {
  std::vector<const simd::SimdKernels*> tables;
  const auto add = [&](const simd::SimdKernels* t) {
    if (t != nullptr) tables.push_back(t);
  };
  switch (simd::detected_isa()) {
    case simd::Isa::Avx2:
      add(simd::avx2_kernels());
      break;
    case simd::Isa::Neon:
      add(simd::neon_kernels());
      break;
    case simd::Isa::None:
      break;
  }
  switch (simd::detected_dot_isa()) {
    case simd::DotIsa::AvxVnni:
      add(simd::avx2_vnni_kernels());
      break;
    case simd::DotIsa::NeonDot:
      add(simd::neon_dot_kernels());
      break;
    case simd::DotIsa::None:
      break;
  }
  return tables;
}

std::int8_t requant_scalar(std::int32_t acc, const FixedPointMultiplier& m,
                           std::int32_t zp, std::int32_t lo, std::int32_t hi) {
  return static_cast<std::int8_t>(
      clamp_to(apply_multiplier(acc, m) + zp, lo, hi));
}

TEST(KernelParity, SrdhmLanesMatchScalarOnEdgeValues) {
  const auto tables = host_tables();
  if (tables.empty()) GTEST_SKIP() << "no SIMD table on this host";
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  // The int32 extremes, the SRDHM nudge boundaries and every small value,
  // whose quotients hit each rounding tie of the shifts below.
  std::vector<std::int32_t> xs = {kMin,           kMin + 1,
                                  -(1 << 30) - 1, -(1 << 30) + 1,
                                  (1 << 30) - 1,  (1 << 30) + 1,
                                  kMax - 1,       kMax};
  for (std::int32_t x = -300; x <= 300; ++x) xs.push_back(x);
  const std::int32_t mantissas[] = {1 << 30, (1 << 30) + 1, kMax};
  for (const simd::SimdKernels* t : tables) {
    for (int shift = 0; shift <= 31; ++shift) {
      for (const std::int32_t x : xs) {
        for (const std::int32_t mant : mantissas) {
          // With out_zp = -apply_multiplier(x, m) the clamped int8 output
          // is 0 iff the lane reproduced the scalar SRDHM and rounding
          // shift exactly; 16 copies of x cover both the even and the odd
          // 64-bit lane halves.
          const FixedPointMultiplier m{mant, shift};
          const std::int32_t want = apply_multiplier(x, m);
          std::vector<std::int32_t> acc(16, x);
          std::vector<std::int8_t> out(16, 99);
          t->requant_i32_row(acc.data(), nullptr, 16, m, -want, -128, 127,
                             out.data());
          for (int j = 0; j < 16; ++j) {
            ASSERT_EQ(static_cast<int>(out[static_cast<std::size_t>(j)]), 0)
                << t->name << " x " << x << " mantissa " << mant
                << " shift " << shift << " lane " << j;
          }
        }
      }
    }
  }
}

// One gemm_requant call over a whole m x n x k GEMM against its unfused
// twin: the gemm_block_i8 contract (scalar sums with the table's
// activation bias, which the table's own gemm_block_i8 must also match)
// plus the scalar requantize. Every buffer is sized exactly, so the
// sanitizer builds catch an activation broadcast past A's last row, an
// operand load past the panel's last k row and a write past the n-lane
// accumulator row, which starts out holding garbage.
void expect_gemm_requant_matches(const simd::SimdKernels* t, int m, int n,
                                 int k, int trial, nn::Rng& rng) {
  const Activation acts[] = {Activation::None, Activation::ReLU,
                             Activation::ReLU6};
  std::vector<std::int8_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int8_t> w(static_cast<std::size_t>(n) * k);
  for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform(-128, 128));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform(-128, 128));
  std::vector<std::int8_t> bt(w.size());
  pack_weights_kmajor(w, n, k, bt.data());
  std::vector<std::int32_t> offset(static_cast<std::size_t>(n));
  for (auto& v : offset) {
    v = static_cast<std::int32_t>(rng.uniform(-40000, 40000));
  }
  // Every 5th trial: a multiplier above 1 (negative right shift), whose
  // lanes spill to the scalar apply_multiplier.
  const FixedPointMultiplier mult = quantize_multiplier(
      trial % 5 == 0 ? rng.uniform(1.5, 6.0) : rng.uniform(1e-4, 0.05));
  const QuantParams out_p{
      0.05f, static_cast<std::int32_t>(rng.uniform(-20, 20)), 8};
  const auto [lo, hi] = activation_range(acts[trial % 3], out_p);

  std::vector<std::int32_t> sums(static_cast<std::size_t>(m) * n, 0);
  for (int r = 0; r < m; ++r) {
    for (int kk = 0; kk < k; ++kk) {
      const std::int32_t x =
          a[static_cast<std::size_t>(r) * k + kk] + t->gemm_a_bias;
      for (int j = 0; j < n; ++j) {
        sums[static_cast<std::size_t>(r) * n + j] +=
            x * bt[static_cast<std::size_t>(kk) * n + j];
      }
    }
  }
  std::vector<std::int32_t> block(4 * static_cast<std::size_t>(n));
  for (int r0 = 0; r0 < m; r0 += 4) {
    const int rows = std::min(4, m - r0);
    t->gemm_block_i8(a.data() + static_cast<std::size_t>(r0) * k, bt.data(),
                     rows, n, k, block.data());
    ASSERT_TRUE(std::equal(block.begin(), block.begin() + rows * n,
                           sums.begin() + static_cast<std::size_t>(r0) * n))
        << t->name << " gemm_block_i8 rows " << r0 << ".." << r0 + rows
        << " n " << n << " k " << k;
  }
  std::vector<std::int8_t> want(sums.size());
  for (std::size_t i = 0; i < sums.size(); ++i) {
    want[i] = requant_scalar(sums[i] + offset[i % static_cast<std::size_t>(n)],
                             mult, out_p.zero_point, lo, hi);
  }
  std::vector<std::int32_t> acc(static_cast<std::size_t>(n), 0x5A5A5A5A);
  std::vector<std::int8_t> got(want.size(), 99);
  t->gemm_requant(a.data(), bt.data(), m, n, k, offset.data(), mult,
                  out_p.zero_point, lo, hi, acc.data(), got.data());
  const auto bad = std::mismatch(want.begin(), want.end(), got.begin());
  ASSERT_TRUE(bad.first == want.end())
      << t->name << " m " << m << " n " << n << " k " << k << " shift "
      << mult.right_shift << ": out[" << (bad.first - want.begin()) / n
      << "][" << (bad.first - want.begin()) % n << "] = "
      << static_cast<int>(*bad.second) << ", want "
      << static_cast<int>(*bad.first);
}

TEST(KernelParity, GemmRequantMatchesUnfusedBlocks) {
  const auto tables = host_tables();
  if (tables.empty()) GTEST_SKIP() << "no SIMD table on this host";
  std::vector<int> small_n;
  for (int n = 1; n <= 40; ++n) small_n.push_back(n);
  small_n.push_back(48);
  small_n.push_back(96);
  std::vector<int> small_k;
  for (int k = 1; k <= 20; ++k) small_k.push_back(k);
  for (const int k : {27, 48, 64}) small_k.push_back(k);
  // kGemmStripK + 1: the panel read in place, with a k tail for both the
  // 2- and the 4-wide k step.
  const int big_k[] = {27, 48, 64, 1280, simd::kGemmStripK + 1};
  const int big_m[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 81, 276};
  const int big_n[] = {8, 16, 17, 40, 48, 96, 1000};
  nn::Rng rng(1515);
  std::string covered;
  for (const simd::SimdKernels* t : tables) {
    if (t->gemm_requant == nullptr) continue;  // NEON: unfused only
    covered += std::string(" ") + t->name;
    int trial = 0;
    // Every small shape: row blocks of 1..4 plus leftovers, each column
    // tile width and every k tail.
    for (int m = 1; m <= 13; ++m) {
      for (const int n : small_n) {
        for (const int k : small_k) {
          expect_gemm_requant_matches(t, m, n, k, trial++, rng);
          if (HasFatalFailure()) return;
        }
      }
    }
    // The served sizes: many rows, wide panels, k past the strip bound.
    for (const int m : big_m) {
      for (const int n : big_n) {
        for (const int k : big_k) {
          if (static_cast<double>(m) * n * k > 2.5e7) continue;
          expect_gemm_requant_matches(t, m, n, k, trial++, rng);
          if (HasFatalFailure()) return;
        }
      }
    }
    // The fully-connected GEMV with every 16-column remainder: n % 16 in
    // {4, 8, 12, 0}.
    for (const int n : {996, 1000, 1004, 1008}) {
      for (const int k : {1, 2, 3, 5, 27, 1280, simd::kGemmStripK + 1}) {
        expect_gemm_requant_matches(t, 1, n, k, trial++, rng);
        if (HasFatalFailure()) return;
      }
    }
  }
  if (covered.empty()) GTEST_SKIP() << "no table with a fused GEMM entry";
  std::printf("gemm_requant covered tables:%s\n", covered.c_str());
}

// dw_conv against an independent scalar loop over whole maps: every kernel
// window clipped to the input (so border windows, and windows lying wholly
// in the padding), channel counts 1..40 and the served ones, output rows of
// up to 40 pixels (the lane pattern of lcm(32, c) lanes wraps several
// times), strides 1 and 2, the int8 zero-point extremes, a null bias and
// multipliers above 1.
TEST(KernelParity, DwConvMatchesScalarLoop) {
  const auto tables = host_tables();
  if (tables.empty()) GTEST_SKIP() << "no SIMD table on this host";
  const Activation acts[] = {Activation::None, Activation::ReLU,
                             Activation::ReLU6};
  const std::int32_t zps[] = {-128, 0, 127};
  std::vector<int> channels;
  for (int c = 1; c <= 40; ++c) channels.push_back(c);
  for (const int c : {48, 96, 144, 192, 288, 336, 576}) channels.push_back(c);
  nn::Rng rng(1616);
  std::string covered;
  for (const simd::SimdKernels* t : tables) {
    if (t->dw_conv == nullptr) continue;  // NEON: per-pixel loop only
    covered += std::string(" ") + t->name + " (" + t->dw_body + ")";
    int trial = 0;
    for (const int kernel : {1, 3, 5}) {
      for (const int c : channels) {
        for (const int stride : {1, 2}) {
          for (const std::int32_t zp : zps) {
            for (const bool with_bias : {false, true}) {
              ++trial;
              simd::DwConv p;
              p.c = c;
              p.kernel_h = p.kernel_w = kernel;
              p.stride_h = p.stride_w = stride;
              p.pad_h = static_cast<int>(rng.uniform(0, kernel));
              p.pad_w = static_cast<int>(rng.uniform(0, kernel));
              p.out_h = 1 + static_cast<int>(rng.uniform(0, 3));
              p.out_w = 1 + static_cast<int>(rng.uniform(0, 40));
              // Mostly the extent the output needs; sometimes a column or
              // row more or fewer, so the bottom/right padding varies too.
              const auto extent = [&](int out, int pad) {
                return std::max(1, (out - 1) * stride + kernel - 2 * pad +
                                       static_cast<int>(
                                           rng.uniform(0, stride + 2)) -
                                       1);
              };
              p.in_h = extent(p.out_h, p.pad_h);
              p.in_w = extent(p.out_w, p.pad_w);
              const int taps = kernel * kernel;
              std::vector<std::int8_t> x(static_cast<std::size_t>(p.in_h) *
                                         p.in_w * c);
              std::vector<std::int8_t> w(static_cast<std::size_t>(taps) * c);
              for (auto& v : x) {
                v = static_cast<std::int8_t>(rng.uniform(-128, 128));
              }
              for (auto& v : w) {
                v = static_cast<std::int8_t>(rng.uniform(-128, 128));
              }
              if (trial % 7 == 0) {
                // Extreme products: |x - zp| = 255 against w = -128.
                for (auto& v : x) v = zp < 0 ? 127 : -128;
                for (auto& v : w) v = -128;
              }
              std::vector<std::int32_t> bias(static_cast<std::size_t>(c));
              for (auto& v : bias) {
                v = static_cast<std::int32_t>(rng.uniform(-30000, 30000));
              }
              const FixedPointMultiplier m = quantize_multiplier(
                  trial % 11 == 0 ? rng.uniform(1.5, 6.0)
                                  : rng.uniform(1e-4, 0.05));
              const QuantParams out_p{
                  0.05f, static_cast<std::int32_t>(rng.uniform(-20, 20)), 8};
              const auto [lo, hi] = activation_range(acts[trial % 3], out_p);

              const std::size_t n_out =
                  static_cast<std::size_t>(p.out_h) * p.out_w * c;
              std::vector<std::int8_t> want(n_out);
              for (int oy = 0; oy < p.out_h; ++oy) {
                for (int ox = 0; ox < p.out_w; ++ox) {
                  for (int ch = 0; ch < c; ++ch) {
                    std::int32_t acc =
                        with_bias ? bias[static_cast<std::size_t>(ch)] : 0;
                    for (int ky = 0; ky < kernel; ++ky) {
                      const int iy = oy * stride + ky - p.pad_h;
                      if (iy < 0 || iy >= p.in_h) continue;
                      for (int kx = 0; kx < kernel; ++kx) {
                        const int ix = ox * stride + kx - p.pad_w;
                        if (ix < 0 || ix >= p.in_w) continue;
                        const std::size_t xi =
                            (static_cast<std::size_t>(iy) * p.in_w + ix) * c +
                            ch;
                        const std::size_t wi =
                            (static_cast<std::size_t>(ky) * kernel + kx) * c +
                            ch;
                        acc += (static_cast<std::int32_t>(x[xi]) - zp) * w[wi];
                      }
                    }
                    want[(static_cast<std::size_t>(oy) * p.out_w + ox) * c +
                         ch] = requant_scalar(acc, m, out_p.zero_point, lo,
                                              hi);
                  }
                }
              }

              std::vector<std::int8_t> packed(static_cast<std::size_t>(
                  t->dw_pack(w.data(), kernel, kernel, c, nullptr)));
              t->dw_pack(w.data(), kernel, kernel, c, packed.data());
              std::vector<std::int32_t> wsum(static_cast<std::size_t>(c), 0);
              for (int tap = 0; tap < taps; ++tap) {
                for (int ch = 0; ch < c; ++ch) {
                  wsum[static_cast<std::size_t>(ch)] +=
                      w[static_cast<std::size_t>(tap) * c + ch];
                }
              }
              std::vector<std::int8_t> ring(
                  static_cast<std::size_t>(simd::dw_ring_bytes(p)));
              std::vector<std::int32_t> offset(
                  static_cast<std::size_t>(simd::dw_offset_lanes(c)));
              // 64 guard bytes past the map catch a store past its end.
              std::vector<std::int8_t> got(n_out + 64, 99);
              p.x = x.data();
              p.w = packed.data();
              p.wsum = wsum.data();
              p.bias = with_bias ? bias.data() : nullptr;
              p.zp = zp;
              p.m = m;
              p.out_zp = out_p.zero_point;
              p.lo = lo;
              p.hi = hi;
              p.y = got.data();
              p.ring = ring.data();
              p.offset = offset.data();
              t->dw_conv(p);
              ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
                  << t->name << " kernel " << kernel << " c " << c
                  << " stride " << stride << " zp " << zp << " in "
                  << p.in_h << "x" << p.in_w << " out " << p.out_h << "x"
                  << p.out_w << " pad " << p.pad_h << "," << p.pad_w
                  << " bias " << with_bias;
              ASSERT_TRUE(std::all_of(
                  got.begin() + static_cast<std::ptrdiff_t>(n_out), got.end(),
                  [](std::int8_t v) { return v == 99; }))
                  << t->name << " wrote past the map, c " << c;
            }
          }
        }
      }
    }
  }
  if (covered.empty()) GTEST_SKIP() << "no table with a dw_conv body";
  std::printf("dw_conv covered tables:%s\n", covered.c_str());
}

// A 1x1, stride-1, unpadded conv runs one GEMM over the whole input map
// (no im2col); h*w % 4 in {0, 1, 2, 3} covers every tail of its 4-row
// blocks. A multiplier above 1 sends the blocks down the unfused
// gemm_block_i8 + requant_i32_row path, any other down the fused one.
TEST(KernelParity, PointwiseConvSkipsIm2colBitExact) {
  nn::Rng rng(1717);
  const TensorShape shapes[] = {{2, 2, 5}, {1, 5, 16}, {3, 2, 9},
                                {7, 1, 3}, {4, 4, 24}, {3, 3, 17},
                                {5, 2, 8}, {3, 5, 1}};
  for (const TensorShape& s : shapes) {
    for (const bool huge_multiplier : {false, true}) {
      Layer l;
      l.kind = OpKind::Conv2D;
      l.out_channels = 1 + static_cast<int>(rng.uniform(0, 40));
      l.act = huge_multiplier ? Activation::None : Activation::ReLU6;
      const QuantParams in_p{0.05f,
                             static_cast<std::int32_t>(rng.uniform(-20, 20)), 8};
      const QuantParams w_p{0.02f, 0, 8};
      const QuantParams out_p{huge_multiplier ? 1e-5f : 0.08f,
                              static_cast<std::int32_t>(rng.uniform(-20, 20)),
                              8};
      QTensor in(s, in_p);
      for (auto& v : in.data()) {
        v = static_cast<std::int8_t>(rng.uniform(-128, 128));
      }
      std::vector<std::int8_t> wq(static_cast<std::size_t>(l.out_channels) *
                                  s.c);
      for (auto& v : wq) v = static_cast<std::int8_t>(rng.uniform(-128, 128));
      std::vector<std::int32_t> bias(static_cast<std::size_t>(l.out_channels));
      for (auto& v : bias) {
        v = static_cast<std::int32_t>(rng.uniform(-3000, 3000));
      }
      if (huge_multiplier) {
        ASSERT_LT(quantize_multiplier(static_cast<double>(in_p.scale) *
                                      w_p.scale / out_p.scale)
                      .right_shift,
                  0);
      }
      KernelBackend ref(KernelTier::Reference);
      const QTensor want = mac_value(ref, in, l, wq, w_p, bias, out_p);
      for (const Table t : kTables) {
        TableBackend backend(t);
        const QTensor got = mac_value(backend, in, l, wq, w_p, bias, out_p);
        expect_q_identical(want, got,
                           t == Table::Scalar ? "pointwise-scalar"
                                              : "pointwise-simd");
      }
    }
  }
}

// A registered offset row (bias - a_zp * Σw) is valid only for the bias it
// was built from. A conv over the same weights at the same zero point but
// with another bias array — a mixed-mode branch step's rescaled bias —
// must recompute its row, not read the registered one.
TEST(KernelParity, OffsetRowIsKeyedByBias) {
  nn::Rng rng(1818);
  Layer l;
  l.kind = OpKind::Conv2D;
  l.kernel_h = l.kernel_w = 3;
  l.pad_h = l.pad_w = 1;
  l.out_channels = 12;
  const TensorShape s{6, 6, 8};
  const QuantParams in_p{0.05f, 9, 8};
  const QuantParams w_p{0.02f, 0, 8};
  const QuantParams out_p{0.08f, -3, 8};
  QTensor in(s, in_p);
  for (auto& v : in.data()) v = static_cast<std::int8_t>(rng.uniform(-128, 128));
  const int k = 3 * 3 * s.c;
  std::vector<std::int8_t> wq(static_cast<std::size_t>(l.out_channels) * k);
  for (auto& v : wq) v = static_cast<std::int8_t>(rng.uniform(-128, 128));
  std::vector<std::int32_t> deploy_bias(static_cast<std::size_t>(l.out_channels));
  std::vector<std::int32_t> branch_bias(deploy_bias.size());
  for (std::size_t j = 0; j < deploy_bias.size(); ++j) {
    deploy_bias[j] = static_cast<std::int32_t>(rng.uniform(-3000, 3000));
    branch_bias[j] = deploy_bias[j] * 3 + 500;
  }
  std::vector<std::int32_t> wsum(deploy_bias.size());
  weight_column_sums(wq, l.out_channels, k, wsum.data());

  KernelBackend ref(KernelTier::Reference);
  for (const Table t : kTables) {
    TableBackend backend(t);
    const std::int32_t a_zp =
        in_p.zero_point + simd::gemm_activation_bias(backend.simd_kernels());
    std::vector<std::int32_t> row(deploy_bias.size());
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = deploy_bias[j] - a_zp * wsum[j];
    }
    backend.register_offset_row(wq.data(), a_zp, deploy_bias.data(), row);
    expect_q_identical(mac_value(ref, in, l, wq, w_p, branch_bias, out_p),
                       mac_value(backend, in, l, wq, w_p, branch_bias, out_p),
                       "other bias");
    expect_q_identical(mac_value(ref, in, l, wq, w_p, deploy_bias, out_p),
                       mac_value(backend, in, l, wq, w_p, deploy_bias, out_p),
                       "registered bias");
  }
}

// Steady-state inference must not grow the arena: after one run the scratch
// footprint is fixed.
TEST(ScratchArena, FootprintStabilizesAcrossRuns) {
  nn::Rng rng(707);
  const RandomCase c = random_case(rng, OpKind::Conv2D, 8, 8);
  KernelBackend backend;
  (void)mac_value(backend, c);
  const std::size_t after_first = backend.arena().footprint_bytes();
  EXPECT_GT(after_first, 0u);
  for (int i = 0; i < 5; ++i) (void)mac_value(backend, c);
  EXPECT_EQ(backend.arena().footprint_bytes(), after_first);
}

// A forced CI leg sets a force variable for the whole test binary. A test
// that pins the same variable must hand the leg's value back, or every
// later test in the binary silently leaves the leg.
TEST(ScopedEnv, AmbientForceVariableSurvivesAGuard) {
  // Stands in for the release-scalar leg's QMCU_FORCE_SCALAR=1.
  const test::ScopedEnv leg("QMCU_FORCE_SCALAR", "1");
  {
    const TableBackend scalar(Table::Scalar);  // pins the variable itself
    const test::ScopedEnv off("QMCU_FORCE_SCALAR", "0");
  }
  EXPECT_STREQ(std::getenv("QMCU_FORCE_SCALAR"), "1");
  EXPECT_EQ(KernelBackend(KernelTier::Simd).simd_kernels(), nullptr);
}

}  // namespace
}  // namespace qmcu::nn::ops

// ---------------------------------------------------------------------------
// Executor-level regression: switching the backend tier must not change any
// executor output — uniform int8 and the mixed-precision patch runtime.
namespace qmcu::patch {
namespace {

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

nn::Graph small_mbv2() {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  return models::make_mobilenet_v2(cfg);
}

void expect_q_identical(const nn::QTensor& a, const nn::QTensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(a.params(), b.params());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(static_cast<int>(a.data()[i]), static_cast<int>(b.data()[i]))
        << "element " << i;
  }
}

TEST(BackendRegression, QuantExecutorTierInvariant) {
  const nn::Graph g = small_mbv2();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 21)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const nn::QuantExecutor ref(g, cfg, nn::ops::KernelTier::Reference);
  const nn::QuantExecutor simd(g, cfg, nn::ops::KernelTier::Simd);
  const nn::Tensor in = random_input(g.shape(0), 22);
  const nn::QTensor want = ref.run(in);
  expect_q_identical(want, simd.run(in));
  const test::ScopedEnv scalar("QMCU_FORCE_SCALAR", "1");
  const nn::QuantExecutor fallback(g, cfg, nn::ops::KernelTier::Simd);
  ASSERT_EQ(fallback.compiled().backend().simd_kernels(), nullptr);
  expect_q_identical(want, fallback.run(in));
}

TEST(BackendRegression, PatchQuantModelMixedModeTierInvariant) {
  const nn::Graph g = small_mbv2();
  data::DataConfig dc;
  dc.resolution = 48;
  const data::SyntheticDataset ds(dc);
  const std::vector<nn::Tensor> calib = ds.batch(0, 2);

  core::QuantMcuConfig qcfg;
  qcfg.patch.grid = 2;
  qcfg.patch.stage_downsample = 4;
  const core::QuantMcuPlan plan = core::build_quantmcu_plan(
      g, mcu::arduino_nano_33_ble_sense(), calib, qcfg);
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto branch_cfgs = core::make_branch_quant_configs(g, plan, ranges);
  const auto deploy_cfg = core::make_deployment_quant_config(g, plan, ranges);

  const CompiledPatchQuantModel ref(g, plan.patch_plan, deploy_cfg,
                                    branch_cfgs,
                                    nn::ops::KernelTier::Reference);
  const CompiledPatchQuantModel simd(g, plan.patch_plan, deploy_cfg,
                                     branch_cfgs, nn::ops::KernelTier::Simd);
  const nn::Tensor in = ds.image(11);
  const nn::QTensor want = ref.run(in);
  expect_q_identical(want, simd.run(in));
  const test::ScopedEnv scalar("QMCU_FORCE_SCALAR", "1");
  const CompiledPatchQuantModel fallback(g, plan.patch_plan, deploy_cfg,
                                         branch_cfgs,
                                         nn::ops::KernelTier::Simd);
  ASSERT_EQ(fallback.backend().simd_kernels(), nullptr);
  expect_q_identical(want, fallback.run(in));
}

// Demoting the dot-product GEMM generation must not change any executor
// output. The backend snapshots its kernel table at construction, so one
// executor is built with QMCU_FORCE_NO_DOT pinned and one without; on hosts
// with no dot generation both resolve to the same table and the test
// degenerates to self-comparison.
TEST(BackendRegression, QuantExecutorDotGenerationInvariant) {
  const nn::Graph g = small_mbv2();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 41)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const nn::QuantExecutor dot(g, cfg, nn::ops::KernelTier::Simd);
  const nn::Tensor in = random_input(g.shape(0), 42);
  nn::QTensor want;
  {
    const test::ScopedEnv no_dot("QMCU_FORCE_NO_DOT", "1");
    const nn::QuantExecutor nodot(g, cfg, nn::ops::KernelTier::Simd);
    want = nodot.run(in);
  }
  expect_q_identical(want, dot.run(in));
}

}  // namespace
}  // namespace qmcu::patch
