// Micro-benchmarks (google-benchmark) for the hot primitives: float/int8
// convolution kernels (Reference vs Simd tier), sub-byte packing, CRC32,
// entropy estimation, the VDQS search itself, and patch-plan construction.
// These bound the cost of the host-side tooling (the paper's Table II
// "Time" column is dominated by entropy profiling + vdqs_search) and track
// the kernel-backend perf trajectory; results land in
// BENCH_micro_kernels.json by default (see bench_common.h).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "bench/bench_common.h"
#include "core/quantmcu.h"
#include "core/vdqs.h"
#include "data/synthetic.h"
#include "mcu/device.h"
#include "models/zoo.h"
#include "nn/checksum.h"
#include "nn/ops/backend.h"
#include "nn/ops/float_kernels.h"
#include "nn/ops/gemm_int8.h"
#include "nn/ops/im2col.h"
#include "nn/ops/int8_kernels.h"
#include "nn/ops/simd/cpu_features.h"
#include "nn/ops/simd/simd_kernels.h"
#include "nn/rng.h"
#include "nn/runtime/worker_pool.h"
#include "nn/serving/serving_frontend.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "patch/patch_plan.h"
#include "quant/bitpack.h"
#include "quant/calibration.h"
#include "quant/entropy.h"
#include "tests/scoped_env.h"

namespace {

using namespace qmcu;

nn::Tensor random_tensor(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

nn::Layer conv_layer(int out_c, int k, int s, int p) {
  nn::Layer l;
  l.kind = nn::OpKind::Conv2D;
  l.kernel_h = l.kernel_w = k;
  l.stride_h = l.stride_w = s;
  l.pad_h = l.pad_w = p;
  l.out_channels = out_c;
  l.act = nn::Activation::ReLU6;
  return l;
}

void BM_Conv2dF32(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const nn::Tensor in = random_tensor({32, 32, c}, 1);
  const nn::Layer l = conv_layer(c, 3, 1, 1);
  std::vector<float> w(static_cast<std::size_t>(c * 3 * 3 * c));
  nn::Rng rng(2);
  for (float& v : w) v = static_cast<float>(rng.normal(0.0, 0.1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::ops::conv2d_f32(in, l, w, {}));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 32 * c * 9 * c);
}
BENCHMARK(BM_Conv2dF32)->Arg(8)->Arg(16)->Arg(32);

// A backend built while `force` (a QMCU_FORCE_* variable, or null) is
// pinned: the backend snapshots its kernel table at construction, and the
// variable gets its prior value back afterwards.
nn::ops::KernelBackend backend_under(nn::ops::KernelTier tier,
                                     const char* force) {
  std::optional<test::ScopedEnv> pin;
  if (force != nullptr) pin.emplace(force, "1");
  return nn::ops::KernelBackend(tier);
}

// 1 when `backend` runs a vector microkernel table (null is the scalar
// fallbacks); tools/bench_guard.py skips vector rows where this is 0.
int simd_active(const nn::ops::KernelBackend& backend) {
  return backend.simd_kernels() != nullptr ? 1 : 0;
}

// 1 when `backend` runs a dot-product GEMM generation.
int dot_active(const nn::ops::KernelBackend& backend) {
  const nn::ops::simd::SimdKernels* k = backend.simd_kernels();
  return k != nullptr && k->gemm_dot ? 1 : 0;
}

// The backend of tier-sweep row `row` (see BM_GemmTierSweep).
nn::ops::KernelBackend sweep_backend(int row) {
  return backend_under(
      row == 0 ? nn::ops::KernelTier::Reference : nn::ops::KernelTier::Simd,
      row == 1   ? "QMCU_FORCE_SCALAR"
      : row == 2 ? "QMCU_FORCE_NO_DOT"
                 : nullptr);
}

// The rows below allocate each op's destination inside the timed loop:
// their committed baselines were measured that way.
struct QuantConvSetup {
  nn::Layer l;
  nn::QTensor qin;
  nn::ops::QuantizedWeights qw;
  nn::QuantParams out_p;
  nn::TensorShape out_shape;
};

QuantConvSetup quant_conv_setup(int c) {
  const nn::Tensor in = random_tensor({32, 32, c}, 3);
  QuantConvSetup s;
  s.l = conv_layer(c, 3, 1, 1);
  std::vector<float> w(static_cast<std::size_t>(c * 3 * 3 * c));
  nn::Rng rng(4);
  for (float& v : w) v = static_cast<float>(rng.normal(0.0, 0.1));
  const auto [lo, hi] = nn::tensor_min_max(in);
  s.qin = nn::quantize(in, nn::choose_quant_params(lo, hi, 8));
  s.qw = nn::ops::quantize_weights(w);
  s.out_p = nn::choose_quant_params(-4.0f, 4.0f, 8);
  s.out_shape = nn::ops::conv_output_shape(s.qin.shape(), s.l, c);
  return s;
}

// One conv of `s` on `backend` into a fresh destination.
void run_conv(nn::ops::KernelBackend& backend, const QuantConvSetup& s) {
  nn::QTensor out(s.out_shape, s.out_p);
  backend.conv2d_into(s.qin, s.l, s.qw.data, s.qw.params, {}, out);
  benchmark::DoNotOptimize(out);
}

// The Simd tier on its scalar fallbacks (im2col + tiled GEMM, no
// microkernel table; QMCU_FORCE_SCALAR pins it at construction): what
// hosts without AVX2/NEON run. BM_Conv2dInt8Simd is the deployed path.
void BM_Conv2dInt8(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const QuantConvSetup s = quant_conv_setup(c);
  nn::ops::KernelBackend backend =
      backend_under(nn::ops::KernelTier::Simd, "QMCU_FORCE_SCALAR");
  for (auto _ : state) run_conv(backend, s);
  state.SetItemsProcessed(state.iterations() * 32 * 32 * c * 9 * c);
}
BENCHMARK(BM_Conv2dInt8)->Arg(8)->Arg(16)->Arg(32);

// The Simd tier (runtime-dispatched AVX2/NEON microkernels). On hosts
// without a usable ISA this measures the scalar fallback; the
// `simd_active` counter records which one ran, and tools/bench_guard.py
// skips Simd entries when it is 0.
void BM_Conv2dInt8Simd(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const QuantConvSetup s = quant_conv_setup(c);
  nn::ops::KernelBackend backend(nn::ops::KernelTier::Simd);
  for (auto _ : state) run_conv(backend, s);
  state.SetItemsProcessed(state.iterations() * 32 * 32 * c * 9 * c);
  state.counters["simd_active"] = simd_active(backend);
}
BENCHMARK(BM_Conv2dInt8Simd)->Arg(8)->Arg(16)->Arg(32);

// One row per kernel table over the same conv (c = 32): the tier speedup
// table the README quotes. Arg 0 = row: 0 Reference, 1 Simd on the scalar
// fallbacks (QMCU_FORCE_SCALAR), 2 Simd pinned to the pair-madd generation
// (QMCU_FORCE_NO_DOT), 3 Simd default dispatch — the dot-product generation
// (AVX-VNNI / NEON sdot) where the host has one, identical to row 2
// elsewhere. Each pin wraps backend construction, where the kernel table is
// snapshotted. `simd_active`/`dot_active` record what the row's backend
// really ran, so tools/bench_guard.py can skip vector rows on scalar hosts
// and row 3 on pair-madd hosts.
void BM_GemmTierSweep(benchmark::State& state) {
  const int row = static_cast<int>(state.range(0));
  const QuantConvSetup s = quant_conv_setup(32);
  nn::ops::KernelBackend backend = sweep_backend(row);
  for (auto _ : state) run_conv(backend, s);
  state.SetItemsProcessed(state.iterations() * 32 * 32 * 32 * 9 * 32);
  state.counters["tier"] = static_cast<double>(row);
  state.counters["simd_active"] = simd_active(backend);
  state.counters["dot_active"] = dot_active(backend);
}
BENCHMARK(BM_GemmTierSweep)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// The fully-connected microkernel sweep (m == 1 panel GEMM): same tier rows
// as BM_GemmTierSweep over k ∈ {64, 256, 1024} input features (arg 1) at 64
// output channels. Row 0 is the reference per-output dot product — the old
// scalar row loop's arithmetic — so row 2/3 vs row 0 is the fc microkernel
// acceptance ratio.
void BM_FcTierSweep(benchmark::State& state) {
  const int row = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  constexpr int kOut = 64;
  nn::Layer l;
  l.kind = nn::OpKind::FullyConnected;
  l.out_channels = kOut;
  l.act = nn::Activation::None;
  nn::Rng rng(14);
  const nn::QuantParams in_p{0.04f, 3, 8};
  const nn::QuantParams out_p{0.1f, -2, 8};
  const nn::QuantParams wp{0.015f, 0, 8};
  nn::QTensor qin(nn::TensorShape{1, 1, k}, in_p);
  for (std::int8_t& v : qin.data()) {
    v = static_cast<std::int8_t>(rng.uniform(-128, 128));
  }
  std::vector<std::int8_t> w(static_cast<std::size_t>(k) * kOut);
  for (std::int8_t& v : w) {
    v = static_cast<std::int8_t>(rng.uniform(-128, 128));
  }
  std::vector<std::int32_t> bias(kOut);
  for (std::int32_t& b : bias) {
    b = static_cast<std::int32_t>(rng.uniform(-3000, 3000));
  }
  nn::ops::KernelBackend backend = sweep_backend(row);
  for (auto _ : state) {
    nn::QTensor out(nn::TensorShape{1, 1, kOut}, out_p);
    backend.fully_connected_into(qin, l, w, wp, bias, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(k) * kOut);
  state.counters["tier"] = static_cast<double>(row);
  state.counters["k"] = static_cast<double>(k);
  state.counters["simd_active"] = simd_active(backend);
  state.counters["dot_active"] = dot_active(backend);
}
BENCHMARK(BM_FcTierSweep)
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({2, 64})
    ->Args({3, 64})
    ->Args({0, 256})
    ->Args({1, 256})
    ->Args({2, 256})
    ->Args({3, 256})
    ->Args({0, 1024})
    ->Args({1, 1024})
    ->Args({2, 1024})
    ->Args({3, 1024});

// One gemm_int8_requant call at the GEMM shapes the served mixed
// MobileNetV2 plan runs most (args: tier-sweep row, m, n, k): a pointwise
// projection 81x8x48, a pointwise expansion 276x48x8, the stem's per-row
// 25x8x27 im2col GEMM and the 1x1000x1280 classifier. Rows 2 and 3 as in
// BM_GemmTierSweep (pair-madd pin, default dispatch).
void BM_GemmServedShapes(benchmark::State& state) {
  const int row = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const int k = static_cast<int>(state.range(3));
  nn::Rng rng(24);
  std::vector<std::int8_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int8_t> w(static_cast<std::size_t>(n) * k);
  for (std::int8_t& v : a) v = static_cast<std::int8_t>(rng.uniform(-128, 128));
  for (std::int8_t& v : w) v = static_cast<std::int8_t>(rng.uniform(-128, 128));
  std::vector<std::int8_t> bt(w.size());
  nn::ops::pack_weights_kmajor(w, n, k, bt.data());
  const nn::ops::KernelBackend backend = sweep_backend(row);
  std::vector<std::int32_t> offset(static_cast<std::size_t>(n));
  for (std::int32_t& v : offset) {
    v = static_cast<std::int32_t>(rng.uniform(-3000, 3000));
  }
  nn::ops::GemmQuantPost post;
  post.offset = offset.data();
  post.multiplier = nn::ops::quantize_multiplier(0.004);
  post.output_zp = -3;
  std::vector<std::int32_t> acc(4 * static_cast<std::size_t>(n));
  std::vector<std::int8_t> c(static_cast<std::size_t>(m) * n);
  for (auto _ : state) {
    nn::ops::gemm_int8_requant(a.data(), bt.data(), m, n, k, post, acc.data(),
                               c.data(), backend.simd_kernels());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m) *
                          n * k);
  state.counters["tier"] = static_cast<double>(row);
  state.counters["simd_active"] = simd_active(backend);
  state.counters["dot_active"] = dot_active(backend);
}
BENCHMARK(BM_GemmServedShapes)
    ->ArgsProduct({{2, 3}, {81}, {8}, {48}})
    ->ArgsProduct({{2, 3}, {276}, {48}, {8}})
    ->ArgsProduct({{2, 3}, {25}, {8}, {27}})
    ->ArgsProduct({{2, 3}, {1}, {1000}, {1280}});

// The seed's reference loop nest, kept as the comparison baseline.
void BM_Conv2dInt8Ref(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const QuantConvSetup s = quant_conv_setup(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nn::ops::conv2d_q(s.qin, s.l, s.qw.data, s.qw.params, {}, s.out_p));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 32 * c * 9 * c);
}
BENCHMARK(BM_Conv2dInt8Ref)->Arg(8)->Arg(16)->Arg(32);

// Arg 1 selects the row: 0 = Reference, 1 = Simd on the scalar fallbacks
// (QMCU_FORCE_SCALAR), 2 = Simd.
void BM_DepthwiseInt8(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const int row = static_cast<int>(state.range(1));
  const nn::Tensor in = random_tensor({32, 32, c}, 8);
  nn::Layer l;
  l.kind = nn::OpKind::DepthwiseConv2D;
  l.kernel_h = l.kernel_w = 3;
  l.stride_h = l.stride_w = 1;
  l.pad_h = l.pad_w = 1;
  l.act = nn::Activation::ReLU6;
  std::vector<float> w(static_cast<std::size_t>(3 * 3 * c));
  nn::Rng rng(9);
  for (float& v : w) v = static_cast<float>(rng.normal(0.0, 0.1));
  const auto [lo, hi] = nn::tensor_min_max(in);
  const nn::QTensor qin = nn::quantize(in, nn::choose_quant_params(lo, hi, 8));
  const nn::ops::QuantizedWeights qw = nn::ops::quantize_weights(w);
  const nn::QuantParams out_p = nn::choose_quant_params(0.0f, 6.0f, 8);
  nn::ops::KernelBackend backend = backend_under(
      row == 0 ? nn::ops::KernelTier::Reference : nn::ops::KernelTier::Simd,
      row == 1 ? "QMCU_FORCE_SCALAR" : nullptr);
  for (auto _ : state) {
    nn::QTensor out(qin.shape(), out_p);
    backend.depthwise_conv2d_into(qin, l, qw.data, qw.params, {}, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 32 * 32 * c * 9);
  state.counters["simd_active"] = simd_active(backend);
}
BENCHMARK(BM_DepthwiseInt8)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({32, 2})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({128, 2});

// One depthwise_conv2d_into call (3x3, ReLU6) at the depthwise shapes the
// served mixed MobileNetV2 plan runs (args: tier-sweep row, input h = w, c,
// stride, pad): the 20x20x8 branch map, the 10x10x48 and padded 18x18x48
// stride-2 maps, the 9x9 maps at 48, 144 and 192 channels and the padded
// 5x5x336 tail. Rows 2 and 3 as in BM_GemmTierSweep (pair-madd pin,
// default dispatch). Items are MACs.
void BM_DepthwiseServedShapes(benchmark::State& state) {
  const int row = static_cast<int>(state.range(0));
  const int hw = static_cast<int>(state.range(1));
  const int c = static_cast<int>(state.range(2));
  nn::Layer l;
  l.kind = nn::OpKind::DepthwiseConv2D;
  l.kernel_h = l.kernel_w = 3;
  l.stride_h = l.stride_w = static_cast<int>(state.range(3));
  l.pad_h = l.pad_w = static_cast<int>(state.range(4));
  l.act = nn::Activation::ReLU6;
  const nn::Tensor in = random_tensor({hw, hw, c}, 26);
  std::vector<float> w(static_cast<std::size_t>(3 * 3 * c));
  nn::Rng rng(27);
  for (float& v : w) v = static_cast<float>(rng.normal(0.0, 0.1));
  const auto [lo, hi] = nn::tensor_min_max(in);
  const nn::QTensor qin = nn::quantize(in, nn::choose_quant_params(lo, hi, 8));
  const nn::ops::QuantizedWeights qw = nn::ops::quantize_weights(w);
  std::vector<std::int32_t> bias(static_cast<std::size_t>(c));
  for (std::int32_t& v : bias) {
    v = static_cast<std::int32_t>(rng.uniform(-3000, 3000));
  }
  nn::QTensor out(nn::ops::conv_output_shape(qin.shape(), l, c),
                  nn::choose_quant_params(0.0f, 6.0f, 8));
  nn::ops::KernelBackend backend = sweep_backend(row);
  for (auto _ : state) {
    backend.depthwise_conv2d_into(qin, l, qw.data, qw.params, bias, out);
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * out.shape().elements() * 9);
  state.counters["tier"] = static_cast<double>(row);
  state.counters["simd_active"] = simd_active(backend);
  state.counters["dot_active"] = dot_active(backend);
}
BENCHMARK(BM_DepthwiseServedShapes)
    ->ArgsProduct({{2, 3}, {20}, {8}, {1}, {0}})
    ->ArgsProduct({{2, 3}, {10}, {48}, {2}, {0}})
    ->ArgsProduct({{2, 3}, {9}, {48}, {1}, {0}})
    ->ArgsProduct({{2, 3}, {18}, {48}, {2}, {1}})
    ->ArgsProduct({{2, 3}, {9}, {144}, {1}, {0}})
    ->ArgsProduct({{2, 3}, {9}, {192}, {1}, {0}})
    ->ArgsProduct({{2, 3}, {5}, {336}, {1}, {1}});

// Integer-only residual add (fixed-point rescale, no per-element doubles).
void BM_AddInt8(benchmark::State& state) {
  const nn::Tensor a = random_tensor({32, 32, 32}, 12);
  const nn::Tensor b = random_tensor({32, 32, 32}, 13);
  const nn::QTensor qa = nn::quantize(a, nn::choose_quant_params(-3.0f, 3.0f, 8));
  const nn::QTensor qb = nn::quantize(b, nn::choose_quant_params(-2.0f, 4.0f, 8));
  const nn::QuantParams out_p = nn::choose_quant_params(-5.0f, 5.0f, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nn::ops::add_q(qa, qb, nn::Activation::None, out_p));
  }
  state.SetItemsProcessed(state.iterations() * a.elements());
}
BENCHMARK(BM_AddInt8);

// The same add through KernelBackend::add_into into a preallocated output,
// per tier: row 0 Reference (scalar add_row body), row 1 Simd (the table's
// add_row, AVX2 / NEON). Row 1 vs row 0 is the vectorized-Add ratio.
void BM_AddInt8Tier(benchmark::State& state) {
  const int row = static_cast<int>(state.range(0));
  const auto tier =
      row == 0 ? nn::ops::KernelTier::Reference : nn::ops::KernelTier::Simd;
  const nn::Tensor a = random_tensor({32, 32, 32}, 12);
  const nn::Tensor b = random_tensor({32, 32, 32}, 13);
  const nn::QTensor qa = nn::quantize(a, nn::choose_quant_params(-3.0f, 3.0f, 8));
  const nn::QTensor qb = nn::quantize(b, nn::choose_quant_params(-2.0f, 4.0f, 8));
  nn::QTensor out(qa.shape(), nn::choose_quant_params(-5.0f, 5.0f, 8));
  nn::ops::KernelBackend backend(tier);
  for (auto _ : state) {
    backend.add_into(qa, qb, nn::Activation::None, out);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(state.iterations() * a.elements());
  state.counters["tier"] = static_cast<double>(row);
  state.counters["simd_active"] = simd_active(backend);
}
BENCHMARK(BM_AddInt8Tier)->Arg(0)->Arg(1);

// Simd-tier float conv (im2col + tiled GEMM; float ops never read the
// microkernel table), vs the BM_Conv2dF32 reference.
void BM_Conv2dF32Fast(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  const nn::Tensor in = random_tensor({32, 32, c}, 1);
  const nn::Layer l = conv_layer(c, 3, 1, 1);
  std::vector<float> w(static_cast<std::size_t>(c * 3 * 3 * c));
  nn::Rng rng(2);
  for (float& v : w) v = static_cast<float>(rng.normal(0.0, 0.1));
  nn::ops::KernelBackend backend(nn::ops::KernelTier::Simd);
  for (auto _ : state) {
    nn::Tensor out(in.shape());
    backend.conv2d_f32_into(in, l, w, {}, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 32 * 32 * c * 9 * c);
}
BENCHMARK(BM_Conv2dF32Fast)->Arg(8)->Arg(16)->Arg(32);

// Float depthwise 3x3 (stride 1, pad 1, ReLU6) on a 36x36x48 map, the
// stride-1 depthwise shape of MobileNetV2 w0.35 at 144 px. Row 0 is the
// Reference loop nest, row 1 the Simd tier's channels-innermost body.
void BM_FloatDepthwiseTierSweep(benchmark::State& state) {
  const int row = static_cast<int>(state.range(0));
  const nn::Tensor in = random_tensor({36, 36, 48}, 8);
  nn::Layer l = conv_layer(48, 3, 1, 1);
  l.kind = nn::OpKind::DepthwiseConv2D;
  std::vector<float> w(3 * 3 * 48);
  std::vector<float> bias(48);
  nn::Rng rng(9);
  for (float& v : w) v = static_cast<float>(rng.normal(0.0, 0.3));
  for (float& v : bias) v = static_cast<float>(rng.normal(0.0, 0.1));
  nn::ops::KernelBackend backend(row == 0 ? nn::ops::KernelTier::Reference
                                          : nn::ops::KernelTier::Simd);
  nn::Tensor out(in.shape());
  for (auto _ : state) {
    backend.depthwise_conv2d_f32_into(in, l, w, bias, out);
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 36 * 36 * 48 * 9);
  state.counters["tier"] = static_cast<double>(row);
}
BENCHMARK(BM_FloatDepthwiseTierSweep)->Arg(0)->Arg(1);

// One deployment plan of the Table I headline model (Arduino / ImageNet:
// MobileNetV2 w0.35 @ 144, MinPeak patch plan): calibrate_ranges, then
// build_quantmcu_plan (float passes, entropy profiles, VDPC, VDQS) over a
// two-image calibration batch.
void BM_PlanQuantMcu(benchmark::State& state) {
  const nn::Graph g = models::make_mobilenet_v2(bench::nano_imagenet_scale());
  const std::vector<nn::Tensor> calib =
      bench::dataset_for(data::DatasetKind::ImageNetLike, 144).batch(0, 2);
  const mcu::Device dev = mcu::arduino_nano_33_ble_sense();
  core::QuantMcuConfig cfg;
  cfg.planner = core::PatchPlannerKind::MinPeak;
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::calibrate_ranges(g, calib));
    benchmark::DoNotOptimize(core::build_quantmcu_plan(g, dev, calib, cfg));
  }
}
BENCHMARK(BM_PlanQuantMcu)->Unit(benchmark::kMillisecond);

void BM_BitPack(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  std::vector<std::int8_t> values(1 << 16);
  nn::Rng rng(5);
  const int lo = -(1 << (bits - 1));
  const int hi = (1 << (bits - 1)) - 1;
  for (auto& v : values) {
    v = static_cast<std::int8_t>(rng.uniform(lo, hi + 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::pack(values, bits));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_BitPack)->Arg(2)->Arg(4);

// Sub-byte row expansion (the loop behind a packed patch map's band
// unpack, halo crop and merge), through the Simd tier's vector body when
// the host has one.
void BM_BitUnpack(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  std::vector<std::int8_t> values(1 << 16);
  nn::Rng rng(5);
  const int lo = -(1 << (bits - 1));
  const int hi = (1 << (bits - 1)) - 1;
  for (auto& v : values) {
    v = static_cast<std::int8_t>(rng.uniform(lo, hi + 1));
  }
  const std::vector<std::uint8_t> packed = quant::pack(values, bits);
  std::vector<std::int8_t> out(values.size());
  const nn::ops::simd::SimdKernels* table = nn::ops::simd::kernels();
  for (auto _ : state) {
    quant::unpack_into(packed, 0, static_cast<std::int64_t>(out.size()), bits,
                       out.data(), table);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
  state.counters["simd_active"] = table != nullptr ? 1 : 0;
}
BENCHMARK(BM_BitUnpack)->Arg(2)->Arg(4);

// CRC32 over an artifact-sized buffer (the plan-artifact loader checks
// every section on the cold-start path). Arg 0 = body: 0 slicing-by-16,
// 1 nn::crc32's dispatch (the pclmul folding body where the kernel table
// has it; `simd_active` records whether it ran). Arg 1 = bytes: one page,
// and the size of the Table I mixed artifact.
void BM_Crc32(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(state.range(1)));
  nn::Rng rng(9);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatched
                                 ? nn::crc32(bytes.data(), bytes.size())
                                 : nn::crc32_table(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
  state.counters["simd_active"] =
      dispatched && std::strcmp(nn::crc32_body_name(), "pclmul") == 0 ? 1 : 0;
}
BENCHMARK(BM_Crc32)->ArgsProduct({{0, 1}, {4096, 3400000}});

void BM_ActivationEntropy(benchmark::State& state) {
  const nn::Tensor t = random_tensor({64, 64, 16}, 6);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::quantized_activation_entropy(t, 4, k));
  }
  state.SetItemsProcessed(state.iterations() * t.elements());
}
BENCHMARK(BM_ActivationEntropy)->Arg(16)->Arg(256);

void BM_VdqsSearch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<core::FeatureMapProfile> fms;
  nn::Rng rng(7);
  for (int i = 0; i < n; ++i) {
    core::FeatureMapProfile p;
    p.elements = 1000 + static_cast<std::int64_t>(rng.uniform(0, 4000));
    p.consumer_macs = 10000 + static_cast<std::int64_t>(rng.uniform(0, 1e6));
    p.entropy_float = 2.5;
    p.entropy_at_bits = {2.45, 2.2 + 0.2 * rng.uniform(), 1.0};
    fms.push_back(p);
  }
  core::VdqsConfig cfg;
  cfg.memory_budget = 6000;
  cfg.reference_bitops = 64'000'000;
  cfg.last_output_entropy = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::vdqs_search(fms, cfg));
  }
}
BENCHMARK(BM_VdqsSearch)->Arg(8)->Arg(32)->Arg(128);

// Repeated (serving-style) inference: the compiled arena path vs the
// heap-per-layer memo path on a small MobileNetV2. Arg 0 = legacy memo
// (run_all, one heap feature map per layer per run), arg 1 = compiled
// static-arena run() (zero per-layer allocation). Outputs are bit-identical;
// only the allocator traffic differs.
void BM_RepeatedRun(benchmark::State& state) {
  const bool arena_path = state.range(0) != 0;
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.35f;
  cfg.resolution = 64;
  cfg.num_classes = 100;
  const nn::Graph g = models::make_mobilenet_v2(cfg);
  const nn::Tensor in = random_tensor(g.shape(0), 21);
  const auto ranges = quant::calibrate_ranges(g, std::vector<nn::Tensor>{in});
  const auto qcfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const nn::QuantExecutor qexec(g, qcfg);
  for (auto _ : state) {
    if (arena_path) {
      benchmark::DoNotOptimize(qexec.run(in));
    } else {
      benchmark::DoNotOptimize(qexec.run_all(in).back());
    }
  }
  state.SetItemsProcessed(state.iterations() * g.total_macs());
}
BENCHMARK(BM_RepeatedRun)->Arg(0)->Arg(1);

// The deployed patch runtime's compiled arena run() on the same model
// (arg 1, the row its baseline is committed under).
void BM_RepeatedPatchRun(benchmark::State& state) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.35f;
  cfg.resolution = 64;
  cfg.num_classes = 100;
  const nn::Graph g = models::make_mobilenet_v2(cfg);
  const nn::Tensor in = random_tensor(g.shape(0), 22);
  const auto ranges = quant::calibrate_ranges(g, std::vector<nn::Tensor>{in});
  const auto qcfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
  const patch::CompiledPatchQuantModel model(g, plan, qcfg);
  for (auto _ : state) benchmark::DoNotOptimize(model.run(in));
  state.SetItemsProcessed(state.iterations() * g.total_macs());
}
BENCHMARK(BM_RepeatedPatchRun)->Arg(1);

// Thread-scaling sweep for the pipelined patch runtime at 1/2/4/8 workers
// (arg 0) over a 3x4 = 12-branch grid: the dependency-driven dataflow graph
// (branch tasks -> tail row bands -> join), which hides the tail behind the
// last branches. The 1-worker row is the sequential code path — the
// scaling baseline. On a single-core host the rows collapse to ~1x; the
// shape of the curve is the artifact CI tracks across machines.
struct PatchRunSetup {
  nn::Graph g;
  nn::Tensor in;
  std::unique_ptr<patch::CompiledPatchQuantModel> model;
  std::int64_t stage_macs = 0;
  std::size_t branches = 0;
};

PatchRunSetup patch_run_setup() {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.35f;
  cfg.resolution = 96;
  cfg.num_classes = 100;
  PatchRunSetup s{models::make_mobilenet_v2(cfg), {}, nullptr};
  s.in = random_tensor(s.g.shape(0), 31);
  const auto ranges =
      quant::calibrate_ranges(s.g, std::vector<nn::Tensor>{s.in});
  const auto qcfg =
      quant::make_quant_config(s.g, ranges, nn::uniform_bits(s.g, 8));
  patch::PatchPlan plan =
      patch::build_patch_plan(s.g, patch::plan_mcunetv2(s.g, {3, 4}));
  s.stage_macs = plan.stage_macs_patched;
  s.branches = plan.branches.size();
  s.model = std::make_unique<patch::CompiledPatchQuantModel>(
      s.g, std::move(plan), qcfg);
  return s;
}

void BM_PipelinedPatchRun(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const PatchRunSetup s = patch_run_setup();
  nn::WorkerPool pool(workers);
  (void)s.model->run(s.in, &pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.model->run(s.in, &pool));
  }
  state.SetItemsProcessed(state.iterations() * s.stage_macs);
  state.counters["workers"] = workers;
  state.counters["branches"] = static_cast<double>(s.branches);
  state.counters["tail_bands"] =
      static_cast<double>(s.model->pipelined_tail().size());
}
BENCHMARK(BM_PipelinedPatchRun)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The serving front-ends both throughput benches drive: `sessions` lanes
// of the shared-weight int8 model, unpinned and with an unbounded queue so
// every request of the backlog is admitted.
using QuantFrontend = nn::serving::ServingFrontend<nn::CompiledQuantModel>;

std::unique_ptr<QuantFrontend> make_quant_frontend(
    int sessions, const nn::Graph& g, const nn::ActivationQuantConfig& qcfg,
    const std::shared_ptr<const nn::QuantizedParameters>& params) {
  nn::serving::ServingConfig cfg;
  cfg.sessions = sessions;
  cfg.pin_lanes = false;
  cfg.max_queue_depth = 0;
  return std::make_unique<QuantFrontend>(
      cfg, [&](int, const std::shared_ptr<nn::ArenaSlab>&) {
        return std::make_unique<nn::CompiledQuantModel>(
            g, qcfg, nn::ops::KernelTier::Simd, params);
      });
}

// Throughput under concurrency for the serving front-end: `sessions`
// (arg 0) lanes serve a backlog of requests submitted from the bench
// thread; items/s is end-to-end requests drained per second.
void BM_SessionPoolThroughput(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.35f;
  cfg.resolution = 64;
  cfg.num_classes = 100;
  const nn::Graph g = models::make_mobilenet_v2(cfg);
  const nn::Tensor in = random_tensor(g.shape(0), 33);
  const auto ranges = quant::calibrate_ranges(g, std::vector<nn::Tensor>{in});
  const auto qcfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const auto params = nn::QuantizedParameters::build_shared(g, qcfg);
  // Lanes run the scalar fallbacks, as this bench's baselines do. The pin
  // outlives the front-end, so no serving thread reads the environment
  // while it changes.
  const test::ScopedEnv scalar("QMCU_FORCE_SCALAR", "1");
  const auto frontend = make_quant_frontend(sessions, g, qcfg, params);
  constexpr int kBacklog = 16;
  // Warm-up batch: lanes size their arenas lazily on first run, and a
  // full backlog spreads requests across (almost surely) every lane so
  // the timed iterations measure steady-state serving, not allocation.
  {
    std::vector<std::future<nn::QTensor>> warm;
    for (int i = 0; i < kBacklog; ++i) warm.push_back(frontend->submit(in));
    for (auto& f : warm) (void)f.get();
  }
  for (auto _ : state) {
    std::vector<std::future<nn::QTensor>> futures;
    futures.reserve(kBacklog);
    for (int i = 0; i < kBacklog; ++i) futures.push_back(frontend->submit(in));
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations() * kBacklog);
  state.counters["sessions"] = sessions;
}
BENCHMARK(BM_SessionPoolThroughput)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Batched submission: the same backlog lands as `batch`-sized
// submit_batch calls (arg 0 = batch size; 1 = the per-item baseline) on
// two lanes. submit_batch spreads each batch across the lanes (one queue
// entry per contiguous chunk), so larger batches trade per-item queue
// wakeups for chunk-sized runs on each lane's bound arena.
void BM_SessionPoolBatchThroughput(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.35f;
  cfg.resolution = 64;
  cfg.num_classes = 100;
  const nn::Graph g = models::make_mobilenet_v2(cfg);
  const nn::Tensor in = random_tensor(g.shape(0), 34);
  const auto ranges = quant::calibrate_ranges(g, std::vector<nn::Tensor>{in});
  const auto qcfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const auto params = nn::QuantizedParameters::build_shared(g, qcfg);
  // Scalar fallbacks, pinned as in BM_SessionPoolThroughput.
  const test::ScopedEnv scalar("QMCU_FORCE_SCALAR", "1");
  const auto frontend = make_quant_frontend(2, g, qcfg, params);
  constexpr int kBacklog = 16;
  {
    std::vector<std::future<nn::QTensor>> warm;
    for (int i = 0; i < kBacklog; ++i) warm.push_back(frontend->submit(in));
    for (auto& f : warm) (void)f.get();
  }
  for (auto _ : state) {
    std::vector<std::future<nn::QTensor>> futures;
    futures.reserve(kBacklog);
    for (int sent = 0; sent < kBacklog; sent += batch) {
      std::vector<nn::Tensor> inputs(
          static_cast<std::size_t>(std::min(batch, kBacklog - sent)), in);
      auto fs = frontend->submit_batch(std::move(inputs));
      for (auto& f : fs) futures.push_back(std::move(f));
    }
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations() * kBacklog);
  state.counters["batch"] = batch;
}
BENCHMARK(BM_SessionPoolBatchThroughput)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PatchPlanBuild(benchmark::State& state) {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.35f;
  cfg.resolution = 144;
  cfg.init_weights = false;
  const nn::Graph g = models::make_mobilenet_v2(cfg);
  const patch::PatchSpec spec = patch::plan_mcunetv2(g, {3, 4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(patch::build_patch_plan(g, spec));
  }
}
BENCHMARK(BM_PatchPlanBuild);

}  // namespace

int main(int argc, char** argv) {
  return qmcu::bench::run_benchmarks_json(argc, argv,
                                          "BENCH_micro_kernels.json");
}
