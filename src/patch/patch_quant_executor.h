// patch_quant_executor.h — the deployed execution path: patch-based
// inference in the quantized domain.
//
// Two operating modes, matching the paper's runtime:
//   * uniform — every feature map at its calibrated per-layer QuantParams
//     (the MCUNetV2-style int8 deployment). Bit-identical to the
//     layer-based QuantExecutor: region crops fill padding with the
//     producer's zero point, exactly what the windowed integer kernels
//     assume for out-of-bounds positions.
//   * mixed — each branch carries its own per-step QuantParams (the VDQS
//     bitwidth assignment materialised over the calibrated ranges); the
//     reassembled cut-layer feature map is requantized slice by slice into
//     the tail's parameters, as the deployed runtime would do when copying
//     a branch result into the shared accumulation buffer.
//
// Construction compiles the plan into a patch::CompiledPatchQuantModel;
// run() executes against its static tensor arena with zero per-step
// allocation. Weight conversion (QuantizedParameters) can be prebuilt once
// and shared across executors — bench sweeps construct many executors over
// the same graph.
#pragma once

#include <memory>
#include <vector>

#include "nn/executor.h"
#include "patch/compiled_patch_model.h"
#include "patch/patch_plan.h"

namespace qmcu::patch {

class PatchQuantExecutor {
 public:
  // Uniform mode: stage steps inherit the per-layer params of `cfg`.
  PatchQuantExecutor(
      const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
      nn::ops::KernelTier tier = nn::ops::KernelTier::Simd,
      std::shared_ptr<const nn::QuantizedParameters> params = {});

  // Mixed mode: `branch_cfgs[b].per_step[s]` overrides the params of
  // branch b's step s; `cfg` still rules the tail (and the reassembled cut
  // feature map via cfg.params[split]).
  PatchQuantExecutor(
      const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
      std::vector<BranchQuantConfig> branch_cfgs,
      nn::ops::KernelTier tier = nn::ops::KernelTier::Simd,
      std::shared_ptr<const nn::QuantizedParameters> params = {});

  // Compiled arena path (bit-identical to the legacy per-step-tensor path).
  [[nodiscard]] nn::QTensor run(const nn::Tensor& input) const;

  // The reassembled cut-layer feature map (tail params).
  [[nodiscard]] nn::QTensor run_stage_assembled(const nn::Tensor& input) const;

  [[nodiscard]] const PatchPlan& plan() const { return compiled_.plan(); }
  [[nodiscard]] const CompiledPatchQuantModel& compiled() const {
    return compiled_;
  }
  [[nodiscard]] const std::shared_ptr<const nn::QuantizedParameters>&
  shared_parameters() const {
    return compiled_.shared_parameters();
  }

 private:
  [[nodiscard]] std::vector<nn::QTensor> run_branch(const nn::QTensor& qinput,
                                                    int branch) const;

  const nn::Graph* graph_;
  // Single source of compile-time state: quant config, pool-propagated
  // effective params, branch configs/biases, shared weight conversion and
  // the kernel backend (scratch + panel cache) all live in the compiled
  // model; the legacy run_stage_assembled path reads them from there.
  CompiledPatchQuantModel compiled_;
};

}  // namespace qmcu::patch
