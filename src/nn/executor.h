// executor.h — layer-based (whole feature map) execution.
//
// Two executors share the Graph IR:
//   Executor      — float32 reference; also the calibration vehicle.
//   QuantExecutor — integer inference with per-layer activation QuantParams
//                   (the per-feature-map bitwidth assignment the paper's
//                   VDQS produces) and 8-bit symmetric weights.
//
// Both compile the graph once on construction (see nn/compiled_model.h):
// `run` executes the compiled schedule against a static tensor arena with
// zero per-layer allocation, bit-identical to the memo-based path.
// `run_all` keeps every intermediate feature map alive — which
// calibration, the entropy analysis and the layer-by-layer oracle
// comparisons need, and which a single overwriting arena cannot provide —
// so it stays on the heap-per-layer memo path; `run` returns only the
// final output.
#pragma once

#include <vector>

#include "nn/compiled_model.h"
#include "nn/graph.h"
#include "nn/ops/backend.h"
#include "nn/ops/int8_kernels.h"
#include "nn/tensor.h"

namespace qmcu::nn {

// Executes one non-Input layer of `g` against already-computed producer
// tensors (memo is indexed by layer id; only the layer's inputs are read).
// Shared by the layer-based executor and the patch engine's tail phase.
// Kernels dispatch through `backend`, which the caller owns. The `_into`
// form writes into a caller-bound destination (shape = g.shape(id); for
// quantized pools its params must equal the producer's) — the compiled
// arena executors' path.
Tensor run_layer_f32(const Graph& g, int id, std::span<const Tensor> memo,
                     ops::KernelBackend& backend);
void run_layer_f32_into(const Graph& g, int id, std::span<const Tensor> memo,
                        ops::KernelBackend& backend, Tensor& out);

class Executor {
 public:
  explicit Executor(const Graph& g,
                    ops::KernelTier tier = ops::KernelTier::Simd)
      : graph_(&g), compiled_(g, tier) {}

  // Runs the whole graph; result[i] is the output feature map of layer i.
  [[nodiscard]] std::vector<Tensor> run_all(const Tensor& input) const;

  // Runs the whole graph through the compiled arena schedule and returns
  // the final layer's output.
  [[nodiscard]] Tensor run(const Tensor& input) const;

  // Incremental re-execution: `memo` holds a full run's feature maps with
  // memo[changed_layer] already replaced (e.g. by a fake-quantized copy);
  // recomputes only the layers downstream of the change and returns the
  // updated memo. Used by sensitivity analyses (HAWQ-style perturbation)
  // that would otherwise pay a full forward pass per probed layer.
  [[nodiscard]] std::vector<Tensor> run_from(std::vector<Tensor> memo,
                                             int changed_layer) const;

  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] const CompiledModel& compiled() const { return compiled_; }

 private:
  const Graph* graph_;  // non-owning; graph must outlive the executor
  // All paths dispatch through the compiled model's backend (one scratch
  // arena per executor; the float conv repacks its weight panel into that
  // arena on every call, only the integer ops cache panels); its state is
  // mutated during const runs, so a single executor instance must not run
  // concurrently from multiple threads — use one executor per thread.
  CompiledModel compiled_;
};

// Executes one non-Input layer in the quantized domain. `memo` holds the
// producers' quantized feature maps; `out_params` is the layer's output
// quantization (from the ActivationQuantConfig).
QTensor run_layer_q(const Graph& g, int id, std::span<const QTensor> memo,
                    const QuantizedParameters& params,
                    const QuantParams& out_params,
                    ops::KernelBackend& backend);
void run_layer_q_into(const Graph& g, int id, std::span<const QTensor> memo,
                      const QuantizedParameters& params,
                      ops::KernelBackend& backend, QTensor& out);

class QuantExecutor {
 public:
  // Weights are quantized (8-bit symmetric) and biases rescaled at
  // construction, mirroring ahead-of-time conversion on the MCU. Pass
  // prebuilt shared parameters to amortise that conversion across several
  // executors over the same graph (e.g. bench sweeps).
  QuantExecutor(const Graph& g, ActivationQuantConfig cfg,
                ops::KernelTier tier = ops::KernelTier::Simd,
                std::shared_ptr<const QuantizedParameters> params = {});

  [[nodiscard]] std::vector<QTensor> run_all(const Tensor& input) const;
  // Compiled arena path; bit-identical to run_all's final feature map.
  [[nodiscard]] QTensor run(const Tensor& input) const;

  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] const ActivationQuantConfig& config() const {
    return compiled_.config();
  }
  [[nodiscard]] const CompiledQuantModel& compiled() const {
    return compiled_;
  }
  [[nodiscard]] const std::shared_ptr<const QuantizedParameters>&
  shared_parameters() const {
    return compiled_.shared_parameters();
  }

 private:
  const Graph* graph_;
  CompiledQuantModel compiled_;
};

}  // namespace qmcu::nn
