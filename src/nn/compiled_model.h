// compiled_model.h — compile-once / run-many execution against a static
// tensor arena.
//
// The executors in executor.h recompute per run everything that is actually
// invariant across runs: the topological schedule, quantized weights and
// rescaled biases, and — worst of all — a fresh heap allocation per feature
// map per layer. A CompiledModel does that work exactly once:
//
//   Graph ──compile──► { schedule, ArenaPlan offsets, prepacked weight
//                        panels, quantized parameters } ──run──► output
//
// run() binds every feature map onto its planned byte offset inside one
// arena (owned, or caller-provided — the MCU's static SRAM buffer) and
// executes the schedule through the `_into` kernel entry points, so the hot
// path performs zero per-layer allocations and the memory planner's peak is
// the allocator's actual high-water by construction. Outputs are
// bit-identical to the heap-per-layer executors: the same kernels run in
// the same order on the same values.
//
// This header also hosts the quantization-time model parameters
// (ActivationQuantConfig, QuantizedParameters) shared by the compiled
// models, the layer-based executors and the patch engine. QuantizedParameters
// can be built once and shared across any number of executors/compiled
// models over the same graph (bench sweeps construct many).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/graph.h"
#include "nn/memory_planner.h"
#include "nn/ops/backend.h"
#include "nn/ops/int8_kernels.h"
#include "nn/runtime/arena_slab.h"
#include "nn/tensor.h"

namespace qmcu::nn {

// Per-layer activation quantization parameters, indexed by layer id.
// `params[i].bits` is the feature-map bitwidth b_i of the paper.
struct ActivationQuantConfig {
  std::vector<QuantParams> params;

  [[nodiscard]] int bits(int layer_id) const {
    return params[static_cast<std::size_t>(layer_id)].bits;
  }
};

// Ahead-of-time converted model parameters: 8-bit symmetric weights and
// int32 biases rescaled to in_scale * weight_scale, per MAC layer. Shared
// by the layer-based QuantExecutor and the patch engine
// (patch::CompiledPatchQuantModel); build once with build_shared() when
// several models run the same graph.
//
// The per-layer entries are span views: build() points them at the owned
// `weight_store`/`bias_store`, while the plan-artifact loader points them
// straight into a read-only mmap so a fleet of processes shares one
// physical copy of the weights. Views alias the stores, so the struct is
// move-only (vector moves keep heap buffers stable; a copy would alias the
// source's storage).
struct QuantizedParameters {
  struct WeightView {
    std::span<const std::int8_t> data;
    QuantParams params;  // zero_point == 0
  };
  std::vector<WeightView> weights;  // indexed by layer id
  std::vector<std::span<const std::int32_t>> bias;

  // Backing storage for the in-memory build path; unused entries (and the
  // whole vectors, on the artifact path) stay empty.
  std::vector<ops::QuantizedWeights> weight_store;
  std::vector<std::vector<std::int32_t>> bias_store;

  QuantizedParameters() = default;
  QuantizedParameters(QuantizedParameters&&) = default;
  QuantizedParameters& operator=(QuantizedParameters&&) = default;
  QuantizedParameters(const QuantizedParameters&) = delete;
  QuantizedParameters& operator=(const QuantizedParameters&) = delete;

  static QuantizedParameters build(const Graph& g,
                                   const ActivationQuantConfig& cfg);
  static std::shared_ptr<const QuantizedParameters> build_shared(
      const Graph& g, const ActivationQuantConfig& cfg);
};

// Effective per-layer output params: pools propagate their producer's
// parameters (the TFLite contract — max/avg/global pooling never
// requantizes), so cfg.params[pool] is overridden by the producer chain.
std::vector<QuantParams> effective_output_params(
    const Graph& g, const ActivationQuantConfig& cfg);

// The layer-lifetime arena placement a CompiledModel/CompiledQuantModel
// computes at construction (elem_bytes = sizeof(float) / 1). Exposed so the
// plan-artifact writer bakes exactly the plan the constructor would derive.
ArenaPlan plan_execution_arena(const Graph& g, std::int64_t elem_bytes);

// Construction-time kernel state precomputed by the plan-artifact writer:
// k-major weight panels and bias/zero-point offset rows,
// each a span view into the read-only artifact mapping (keyed by the layer's
// quantized-weight pointer, also a mapping view). apply() hands them to a
// backend, which then skips its own packing for those weights — the first
// inference after load_compiled() performs no panel construction at all.
struct PrecompiledBundle {
  struct PanelEntry {
    const std::int8_t* key = nullptr;  // quantized weight blob address
    std::span<const std::int8_t> bt;   // k-major [K][N] panel
    std::span<const std::int32_t> wsum;
  };
  struct OffsetEntry {
    const std::int8_t* key = nullptr;
    std::int32_t a_zp = 0;  // activation zero point the row was baked for
    const std::int32_t* bias = nullptr;  // bias array it was baked from
    std::span<const std::int32_t> offset;
  };
  std::vector<PanelEntry> panels;
  std::vector<OffsetEntry> offsets;

  void apply(ops::KernelBackend& backend) const;
};

// Validates a caller-provided arena against a plan's peak and the element
// alignment the bound views need. Shared by every compiled model.
void check_arena(std::span<const std::uint8_t> arena, std::int64_t need,
                 std::size_t alignment);

// --- float -----------------------------------------------------------------

class CompiledModel {
 public:
  explicit CompiledModel(const Graph& g,
                         ops::KernelTier tier = ops::KernelTier::Simd);
  // Artifact path: adopt a precomputed arena plan instead of re-planning.
  CompiledModel(const Graph& g, ArenaPlan plan, ops::KernelTier tier);

  // Executes against the model's own arena (allocated once, reused) — or,
  // when an arena source is set, against a block leased from it for the
  // duration of this run.
  [[nodiscard]] Tensor run(const Tensor& input) const;
  // Executes against a caller-provided arena (>= arena_bytes(), 4-byte
  // aligned) — the deployment form where SRAM is a fixed static buffer.
  Tensor run(const Tensor& input, std::span<std::uint8_t> arena) const;

  [[nodiscard]] const ArenaPlan& arena_plan() const { return plan_; }
  [[nodiscard]] std::int64_t arena_bytes() const { return plan_.peak_bytes; }
  // Furthest arena byte actually written through a bound view on the most
  // recent run (offset + view bytes, not planned slot size): a genuine
  // measurement that the tests compare against the planned peak.
  [[nodiscard]] std::int64_t measured_high_water() const { return measured_; }
  [[nodiscard]] const Graph& graph() const { return *graph_; }
  // The model's kernel backend (scratch arena + panel cache). Exposed so
  // the owning executor's run_all / run_from memo paths share one panel
  // cache with the compiled path instead of packing every conv panel twice.
  [[nodiscard]] ops::KernelBackend& backend() const { return backend_; }
  // Serving integration (same contract as the patch models): when set,
  // run() leases its arena from `slab` per run instead of growing an owned
  // buffer, so a ServingFrontend fleet of layer-based models is capped at
  // max arena x busy lanes rather than the per-model sum.
  void set_arena_source(std::shared_ptr<ArenaSlab> slab) {
    arena_source_ = std::move(slab);
  }

 private:
  const Graph* graph_;  // non-owning; graph must outlive the model
  ArenaPlan plan_;
  std::shared_ptr<ArenaSlab> arena_source_;
  // Mutated (scratch reuse, view rebinding) during const runs; a single
  // instance must not run concurrently from multiple threads.
  mutable ops::KernelBackend backend_;
  mutable std::vector<std::uint8_t> arena_;  // lazily sized owned arena
  mutable std::vector<Tensor> memo_;         // per-layer views, rebound per run
  mutable std::int64_t measured_ = 0;
};

// --- quantized -------------------------------------------------------------

class CompiledQuantModel {
 public:
  // Pass prebuilt `params` (build_shared) to share the weight conversion
  // across executors/compiled models of the same graph; nullptr builds
  // them here.
  CompiledQuantModel(const Graph& g, ActivationQuantConfig cfg,
                     ops::KernelTier tier = ops::KernelTier::Simd,
                     std::shared_ptr<const QuantizedParameters> params = {});
  // Artifact path: everything the default constructor computes arrives
  // precomputed — params view into the mapping, the baked arena plan, and
  // the panel/offset bundle adopted by the backend before prepack (so
  // prepack sees every panel already resident and does no packing work).
  CompiledQuantModel(const Graph& g, ActivationQuantConfig cfg,
                     std::shared_ptr<const QuantizedParameters> params,
                     ArenaPlan plan,
                     std::shared_ptr<const PrecompiledBundle> bundle,
                     ops::KernelTier tier = ops::KernelTier::Simd);

  [[nodiscard]] QTensor run(const Tensor& input) const;
  QTensor run(const Tensor& input, std::span<std::uint8_t> arena) const;

  [[nodiscard]] const ArenaPlan& arena_plan() const { return plan_; }
  [[nodiscard]] std::int64_t arena_bytes() const { return plan_.peak_bytes; }
  [[nodiscard]] std::int64_t measured_high_water() const { return measured_; }
  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] const ActivationQuantConfig& config() const { return cfg_; }
  [[nodiscard]] std::span<const QuantParams> effective_params() const {
    return effective_;
  }
  [[nodiscard]] const std::shared_ptr<const QuantizedParameters>&
  shared_parameters() const {
    return params_;
  }
  [[nodiscard]] ops::KernelBackend& backend() const { return backend_; }
  // Serving integration: lease run arenas from `slab` (see CompiledModel).
  void set_arena_source(std::shared_ptr<ArenaSlab> slab) {
    arena_source_ = std::move(slab);
  }

 private:
  const Graph* graph_;
  ActivationQuantConfig cfg_;
  std::shared_ptr<ArenaSlab> arena_source_;
  std::vector<QuantParams> effective_;
  std::shared_ptr<const QuantizedParameters> params_;
  // Keeps the adopted panel/offset storage (artifact mapping) alive for as
  // long as the backend holds views into it.
  std::shared_ptr<const PrecompiledBundle> bundle_;
  ArenaPlan plan_;
  mutable ops::KernelBackend backend_;
  mutable std::vector<std::uint8_t> arena_;
  mutable std::vector<QTensor> memo_;
  mutable std::int64_t measured_ = 0;
};

}  // namespace qmcu::nn
