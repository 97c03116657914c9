// patch_executor.h — actually *runs* patch-based inference.
//
// The correctness invariant of patch-based inference is that it computes
// bit-identical results to layer-based inference: the halos exist precisely
// so no receptive field is truncated. PatchExecutor enforces that invariant
// (tests compare against nn::Executor exactly), and doubles as the
// calibration vehicle for QuantMCU: run_stage() returns every branch's
// region feature maps, optionally transformed per step — the hook the core
// library uses to inject fake-quantization at searched bitwidths.
//
// Construction compiles the plan into a patch::CompiledPatchModel; hook-free
// run() executes against its static tensor arena with zero per-step
// allocation. The hook paths (run_stage / hooked run) keep the per-step
// tensors the calibration machinery mutates and inspects.
#pragma once

#include <functional>
#include <vector>

#include "nn/executor.h"
#include "nn/graph.h"
#include "patch/compiled_patch_model.h"
#include "patch/patch_plan.h"

namespace qmcu::patch {

// Extracts region `want` (possibly extending outside the feature map, where
// it is zero-filled) from `have`, a tensor holding region `avail` of a
// feature map with full shape `full`. Every in-bounds element of `want`
// must be inside `avail`. The `_into` form writes into a caller-bound
// destination (zero-filling out-of-bounds positions).
nn::Tensor crop_from_region(const nn::Tensor& have, const Region& avail,
                            const Region& want, const nn::TensorShape& full);
void crop_from_region_into(const nn::Tensor& have, const Region& avail,
                           const Region& want, const nn::TensorShape& full,
                           nn::Tensor& out);

class PatchExecutor {
 public:
  // Called after each branch step with (branch index, step index, tensor);
  // may mutate the tensor (e.g. fake-quantize it).
  using StepHook = std::function<void(int, int, nn::Tensor&)>;

  PatchExecutor(const nn::Graph& g, PatchPlan plan,
                nn::ops::KernelTier tier = nn::ops::KernelTier::Simd);

  // Stage feature maps per branch: result[b][s] corresponds to
  // plan().branches[b].steps[s].
  [[nodiscard]] std::vector<std::vector<nn::Tensor>> run_stage(
      const nn::Tensor& input, const StepHook& hook = {}) const;

  // Full inference: patch phase, reassembly of the cut layer's feature map,
  // then layer-based tail. Equals nn::Executor::run bit-for-bit when no
  // hook is installed (and then runs through the compiled arena schedule).
  [[nodiscard]] nn::Tensor run(const nn::Tensor& input,
                               const StepHook& hook = {}) const;

  // The reassembled cut-layer feature map (useful in tests/examples).
  [[nodiscard]] nn::Tensor run_stage_assembled(const nn::Tensor& input,
                                               const StepHook& hook = {}) const;

  [[nodiscard]] const PatchPlan& plan() const { return compiled_.plan(); }
  [[nodiscard]] const nn::Graph& graph() const { return *graph_; }
  [[nodiscard]] const CompiledPatchModel& compiled() const {
    return compiled_;
  }

 private:
  [[nodiscard]] std::vector<nn::Tensor> run_branch(
      const nn::Tensor& input, int branch_index, const StepHook& hook) const;

  const nn::Graph* graph_;
  // All paths — compiled and legacy/hooked — share the compiled model's
  // kernel backend, so one scratch arena and one weight-panel cache serve
  // the executor.
  CompiledPatchModel compiled_;
};

}  // namespace qmcu::patch
