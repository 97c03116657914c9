// patch_artifact.h — QMCP plan artifacts for patch-based quantized models.
//
// Extends the nn::plan_artifact format with two patch sections:
//
//   PTCH  the PatchSpec (cut layer + grid) and the mixed-mode per-branch
//         per-step quant configs
//   BBIA  the branch-rescaled int32 biases build_branch_bias derives from
//         float biases — serialized because the artifact's graph is
//         topology-only (the float biases are not shipped); the model
//         checks every branch, step and bias length against the plan
//
// The loader rebuilds the PatchPlan from the spec (pure receptive-field
// propagation over the topology) and constructs a CompiledPatchQuantModel
// whose weights, panels and offset rows view the shared mapping, exactly
// like nn::load_compiled does for layer-based models. Everything else the
// model needs — the row-banded pipelined tail included — is derived from
// the plan at load, never read from the file: an older file's PIPE section
// (the tail structure, once stored) is ignored.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "nn/plan_artifact.h"
#include "patch/compiled_patch_model.h"
#include "patch/patch_plan.h"

namespace qmcu::patch {

// Bakes a patch-quant artifact: everything CompiledPatchQuantModel computes
// from float parameters at construction. `branch_cfgs` empty = uniform
// mode; otherwise one config per branch of build_patch_plan(g, spec).
void compile_to_artifact(const nn::Graph& g, const PatchSpec& spec,
                         const nn::ActivationQuantConfig& cfg,
                         std::span<const BranchQuantConfig> branch_cfgs,
                         const std::string& path);

// Artifact + model under shared ownership (the model views the mapping).
struct LoadedPatchModel {
  std::shared_ptr<const nn::PlanArtifact> artifact;
  std::unique_ptr<CompiledPatchQuantModel> model;
};

LoadedPatchModel load_compiled_patch(
    const std::string& path,
    nn::ops::KernelTier tier = nn::ops::KernelTier::Simd);

}  // namespace qmcu::patch
