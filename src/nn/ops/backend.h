// backend.h — kernel tier dispatch and the per-executor scratch arena.
//
// Two implementation tiers share one arithmetic contract:
//   Reference — the plain loop nests of int8_kernels.h / float_kernels.h;
//               they define the bit pattern of every op.
//   Simd      — im2col + register-tiled GEMM for conv/fc, interior/border
//               split kernels for depthwise and pooling, with the hottest
//               integer inner loops (GEMM microkernel, depthwise MAC, fused
//               requantize epilogues) routed through the microkernel table
//               of nn/ops/simd/simd_kernels.h (AVX2 / NEON), resolved at
//               construction. On hosts without a usable ISA, or with
//               QMCU_FORCE_SCALAR set when the backend is built, the table
//               is null and every entry runs its scalar fallback. Integer
//               arithmetic is order-independent, so both tables are
//               bit-identical to Reference and Simd is a safe default.
//               The float ops never read the table. They reorder loops,
//               never a single output's sum: the conv GEMM (register tiles
//               seeded with the bias, ascending k; 1x1 stride-1 unpadded
//               convs skip im2col), the depthwise (channels innermost, each
//               pixel's row seeded with the bias, in-bounds taps added in
//               ascending (ky, kx) order) and the fully-connected (eight
//               outputs per pass over the input, each adding in ascending
//               input order) are all bit-identical to Reference.
//
// Every op reads int8 storage. A patch step over a 2/4-bit packed map
// unpacks the operand rows of one band into scratch first
// (CompiledPatchQuantModel's exec_step_band) and then runs the same `_into`
// op, so sub-byte activations take the int8 GEMM against the k-major
// weight panel.
//
// Each executor owns one KernelBackend. Its ScratchArena is a grow-only
// pool of typed blocks reused across every op the executor runs, so
// patch-branch inference stops paying a heap allocation per temporary:
// after the first branch the arena is at steady state and im2col strips,
// repacked weight panels and accumulator tiles all come from recycled
// memory. Elementwise ops (Add/Concat/Softmax/global pooling and the
// requantize slice copy) have a single integer-only implementation shared
// by both tiers.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "nn/graph.h"
#include "nn/ops/int8_kernels.h"
#include "nn/tensor.h"

namespace qmcu::nn::ops {

namespace simd {
struct SimdKernels;
}  // namespace simd

enum class KernelTier { Reference, Simd };

// Thread-affinity guard for the backend's shared mutable state (the scratch
// arena, the lazily-filled weight-panel and AvgPool-table caches). None of
// that state is synchronised — the design is one KernelBackend per worker —
// so silently sharing a backend across threads corrupts scratch in ways
// that show up as wrong outputs long after the race. The guard makes the
// misuse loud instead: the first guarded use after rebind() adopts the
// calling thread as owner, and any use from a different thread throws. One
// relaxed atomic load per *op* (not per element) — unmeasurable next to a
// convolution.
class ThreadAffinity {
 public:
  // Releases the binding; the next check() adopts its calling thread. Call
  // when intentionally handing the guarded object to another thread (the
  // parallel patch runtime rebinds each worker context at dispatch).
  void rebind() { owner_.store(std::thread::id(), std::memory_order_release); }

  void check(const char* what) const {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id seen = owner_.load(std::memory_order_relaxed);
    if (seen == self) return;
    if (seen == std::thread::id() &&
        owner_.compare_exchange_strong(seen, self,
                                       std::memory_order_acq_rel)) {
      return;
    }
    QMCU_ENSURE(seen == self,
                std::string(what) +
                    ": used from a second thread without rebind() — one "
                    "KernelBackend/ScratchArena per worker");
  }

 private:
  mutable std::atomic<std::thread::id> owner_{std::thread::id()};
};

// Grow-only typed scratch pool. Blocks are handed out in request order and
// all returned by reset() (called at the start of each op); capacity is
// retained so steady-state inference performs no allocations. Blocks are
// stable: a later request never invalidates an earlier span. Thread-affine:
// all allocation and reset must come from one thread (rebind_thread() hands
// the arena over); footprint accounting is read-only and exempt.
class ScratchArena {
 public:
  std::span<std::int8_t> i8(std::size_t n);
  std::span<std::int32_t> i32(std::size_t n);
  std::span<float> f32(std::size_t n);
  void reset();

  // Hands the arena to the next thread that allocates from it.
  void rebind_thread() { affinity_.rebind(); }

  // Total capacity held across all pools, for memory accounting.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  std::vector<std::vector<std::int8_t>> i8_blocks_;
  std::vector<std::vector<std::int32_t>> i32_blocks_;
  std::vector<std::vector<float>> f32_blocks_;
  std::size_t i8_next_ = 0;
  std::size_t i32_next_ = 0;
  std::size_t f32_next_ = 0;
  ThreadAffinity affinity_;
};

class KernelBackend {
 public:
  // `cache_weight_panels` keeps the k-major weight repack + column sums of
  // each weight blob across calls (keyed by the blob's address), so
  // repeated convolutions over the same layer — every patch branch, every
  // frame — pack once. It requires the weight spans to stay alive and
  // unchanged for the backend's lifetime, which holds for executors (they
  // own both); pass false where that cannot be guaranteed.
  explicit KernelBackend(KernelTier tier = KernelTier::Simd,
                         bool cache_weight_panels = true);

  [[nodiscard]] KernelTier tier() const { return tier_; }
  // The microkernel table the Simd tier resolved at construction: null for
  // Reference, on hosts without a usable ISA and under QMCU_FORCE_SCALAR
  // (then every op runs its scalar fallback).
  [[nodiscard]] const simd::SimdKernels* simd_kernels() const {
    return simd_;
  }
  [[nodiscard]] ScratchArena& arena() { return arena_; }

  // Hands the backend (scratch arena + panel/table caches) to the next
  // thread that runs an op through it. Every op entry point asserts the
  // calling thread matches the adopted owner, so a backend can never be
  // silently shared across workers; prepack() is construction-time and
  // exempt (it must complete before the backend is handed to a worker).
  void rebind_thread() {
    affinity_.rebind();
    arena_.rebind_thread();
  }

  // Lays out (and caches) the weights `qweights` of MAC layer `l` ahead of
  // time, so a compiled model's first inference pays no packing cost: the
  // k-major panel + column sums of a conv or fully-connected layer, the
  // dw_conv layout (SimdKernels::dw_pack) + per-channel tap sums of a
  // depthwise one. A no-op for any other layer, for empty weights, without
  // panel caching, on the Reference tier (its loop nests read the raw
  // weights) and for a depthwise layer the table's dw_conv body does not
  // run.
  void prepack(const Layer& l, std::span<const std::int8_t> qweights);

  // --- zero-copy panel adoption (plan-artifact loader) ---------------------
  // Installs an externally prepacked k-major panel + column sums for the
  // weight blob at `key` — typically span views straight into a read-only
  // mmap'd artifact. Adopted entries win over the build-on-miss cache, so
  // prepack() and the first conv over this blob do no packing work and make
  // no private copies. The caller guarantees the spans outlive the backend.
  void adopt_panel(const std::int8_t* key, std::span<const std::int8_t> bt,
                   std::span<const std::int32_t> wsum);
  // Installs a precomputed per-column constant row (bias − a_zp·Σw) for the
  // weight blob at `key`, valid only at the recorded activation zero point
  // `a_zp` (which folds in the dot generation's +128 activation bias, so
  // the row is kernel-generation-dependent) and for the bias array at
  // `bias` (null for a layer without bias). Ops validate a_zp, the bias
  // pointer they were handed and the length before use, and silently fall
  // back to the per-run scratch computation on mismatch — a mixed-mode
  // branch step whose rescaled bias differs from the deployment bias never
  // reads the deployment's row, and correctness never depends on the
  // registration matching the live kernel generation.
  void register_offset_row(const std::int8_t* key, std::int32_t a_zp,
                           const std::int32_t* bias,
                           std::span<const std::int32_t> offset);

  // --- integer ops (contracts in int8_kernels.h) ---------------------------
  // Every op writes into a caller-bound destination: its shape is preset
  // and its QuantParams are the output parameters (a pool's must equal the
  // input's). The compiled arena models bind arena views, so the hot path
  // performs no per-layer allocation.
  void conv2d_into(const QTensor& in, const Layer& l,
                   std::span<const std::int8_t> qweights,
                   const QuantParams& wparams,
                   std::span<const std::int32_t> qbias, QTensor& out);
  void depthwise_conv2d_into(const QTensor& in, const Layer& l,
                             std::span<const std::int8_t> qweights,
                             const QuantParams& wparams,
                             std::span<const std::int32_t> qbias,
                             QTensor& out);
  void fully_connected_into(const QTensor& in, const Layer& l,
                            std::span<const std::int8_t> qweights,
                            const QuantParams& wparams,
                            std::span<const std::int32_t> qbias, QTensor& out);
  void max_pool_into(const QTensor& in, const Layer& l, QTensor& out);
  void avg_pool_into(const QTensor& in, const Layer& l, QTensor& out);
  void global_avg_pool_into(const QTensor& in, QTensor& out);
  void add_into(const QTensor& lhs, const QTensor& rhs, Activation act,
                QTensor& out);
  void concat_into(std::span<const QTensor* const> inputs, QTensor& out);
  // Scratch-backed softmax (dequantize → softmax_f32 → quantize over arena
  // float scratch): bit-identical to softmax_q without its allocations.
  void softmax_into(const QTensor& in, QTensor& out);
  void requantize_into(const QTensor& q, QTensor& out);

  // --- float ops (contracts in float_kernels.h) ----------------------------
  void conv2d_f32_into(const Tensor& in, const Layer& l,
                       std::span<const float> weights,
                       std::span<const float> bias, Tensor& out);
  void depthwise_conv2d_f32_into(const Tensor& in, const Layer& l,
                                 std::span<const float> weights,
                                 std::span<const float> bias, Tensor& out);
  void fully_connected_f32_into(const Tensor& in, const Layer& l,
                                std::span<const float> weights,
                                std::span<const float> bias, Tensor& out);

 private:
  struct WeightPanel {
    std::vector<std::int8_t> bt;      // k-major repack [K][N]
    std::vector<std::int32_t> wsum;   // per-column weight sums
  };
  struct PanelView {
    std::span<const std::int8_t> bt;
    std::span<const std::int32_t> wsum;
  };
  // A depthwise blob laid out by dw_pack: `view.bt` is the layout, starting
  // on a cache line inside `room`; `view.wsum` the per-channel tap sums.
  struct DepthwisePanel {
    std::vector<std::int8_t> room;
    std::vector<std::int32_t> wsum;
    PanelView view;
  };

  // Returns the k-major panel for `qweights` (cached or arena-backed).
  PanelView weight_panel(std::span<const std::int8_t> qweights, int n, int k);
  // Returns the dw_pack layout (bt, 64-byte aligned) and per-channel tap
  // sums (wsum) of a depthwise blob, cached or arena-backed; needs
  // simd_->dw_pack.
  PanelView depthwise_panel(std::span<const std::int8_t> qweights,
                            int kernel_h, int kernel_w, int c);
  // Whether the depthwise layer `l` at input zero point `zp` runs the
  // table's dw_conv body (otherwise the per-pixel loop).
  [[nodiscard]] bool fused_depthwise(const Layer& l, std::int32_t zp) const;

  struct OffsetRow {
    std::int32_t a_zp;
    const std::int32_t* bias;  // the bias array the row was built from
    std::span<const std::int32_t> offset;
  };

  // The registered offset row for `key` iff it was computed at `a_zp` from
  // the same bias array (by address) with `n` columns; empty span otherwise
  // (callers then compute into scratch).
  [[nodiscard]] std::span<const std::int32_t> offset_row(
      const std::int8_t* key, std::int32_t a_zp,
      std::span<const std::int32_t> bias, int n) const;

  // Affinity assert shared by every op entry point.
  void guard() const { affinity_.check("KernelBackend"); }

  KernelTier tier_;
  const simd::SimdKernels* simd_ = nullptr;  // resolved once at construction
  bool cache_weight_panels_;
  ScratchArena arena_;
  ThreadAffinity affinity_;
  std::unordered_map<const std::int8_t*, WeightPanel> panels_;
  std::unordered_map<const std::int8_t*, DepthwisePanel> dw_panels_;
  // Externally owned (artifact-mapped) panels and precomputed offset rows;
  // consulted before the build-on-miss caches.
  std::unordered_map<const std::int8_t*, PanelView> adopted_panels_;
  std::unordered_map<const std::int8_t*, OffsetRow> offset_rows_;
  // AvgPool reciprocal tables keyed by window size, reused across runs.
  std::unordered_map<int, AvgPoolMultipliers> avg_pool_tables_;
};

}  // namespace qmcu::nn::ops
