#include "patch/patch_artifact.h"

#include <utility>
#include <vector>

namespace qmcu::patch {

namespace {

using nn::artifact_detail::ByteReader;
using nn::artifact_detail::ByteWriter;

constexpr std::uint32_t kTagPatch = nn::artifact_tag('P', 'T', 'C', 'H');
constexpr std::uint32_t kTagBranchBias = nn::artifact_tag('B', 'B', 'I', 'A');

std::string patch_section(const PatchSpec& spec,
                          std::span<const BranchQuantConfig> branch_cfgs) {
  ByteWriter w;
  w.i32(spec.split_layer);
  w.i32(spec.grid_rows);
  w.i32(spec.grid_cols);
  w.u32(static_cast<std::uint32_t>(branch_cfgs.size()));
  for (const BranchQuantConfig& b : branch_cfgs) {
    w.u32(static_cast<std::uint32_t>(b.per_step.size()));
    for (const nn::QuantParams& p : b.per_step) {
      w.f32(p.scale);
      w.i32(p.zero_point);
      w.i32(p.bits);
    }
  }
  return std::move(w.out);
}

std::string branch_bias_section(
    const std::vector<std::vector<std::vector<std::int32_t>>>& bias) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(bias.size()));
  for (const auto& branch : bias) {
    w.u32(static_cast<std::uint32_t>(branch.size()));
    for (const auto& step : branch) {
      w.u32(static_cast<std::uint32_t>(step.size()));
      for (std::int32_t v : step) w.i32(v);
    }
  }
  return std::move(w.out);
}

std::vector<std::vector<std::vector<std::int32_t>>> parse_branch_bias(
    std::span<const std::uint8_t> bytes) {
  std::vector<std::vector<std::vector<std::int32_t>>> bias;
  if (bytes.empty()) return bias;
  ByteReader r(bytes);
  const std::uint32_t nbranches = r.u32();
  QMCU_REQUIRE(nbranches <= (1u << 16), "implausible branch count");
  bias.resize(nbranches);
  for (auto& branch : bias) {
    const std::uint32_t nsteps = r.u32();
    QMCU_REQUIRE(nsteps <= (1u << 16), "implausible step count");
    branch.resize(nsteps);
    for (auto& step : branch) {
      const std::uint32_t count = r.u32();
      QMCU_REQUIRE(count <= (1u << 20), "implausible bias count");
      step.resize(count);
      for (std::int32_t& v : step) v = r.i32();
    }
  }
  QMCU_REQUIRE(r.done(), "trailing bytes in artifact branch-bias section");
  return bias;
}

}  // namespace

void compile_to_artifact(const nn::Graph& g, const PatchSpec& spec,
                         const nn::ActivationQuantConfig& cfg,
                         std::span<const BranchQuantConfig> branch_cfgs,
                         const std::string& path) {
  const PatchPlan plan = build_patch_plan(g, spec);
  // One quantization feeds both the branch biases and the bake.
  const nn::QuantizedParameters params = nn::QuantizedParameters::build(g, cfg);
  std::vector<std::vector<std::vector<std::int32_t>>> branch_bias;
  if (!branch_cfgs.empty()) {
    QMCU_REQUIRE(branch_cfgs.size() == plan.branches.size(),
                 "branch configs must cover every branch");
    branch_bias = build_branch_bias(g, plan, branch_cfgs, params);
  }

  std::vector<nn::ArtifactSection> extra;
  extra.push_back({kTagPatch, patch_section(spec, branch_cfgs)});
  if (!branch_bias.empty()) {
    extra.push_back({kTagBranchBias, branch_bias_section(branch_bias)});
  }
  nn::compile_to_artifact(g, cfg, params, path, extra,
                          nn::ArtifactModelKind::PatchQuant);
}

LoadedPatchModel load_compiled_patch(const std::string& path,
                                     nn::ops::KernelTier tier) {
  LoadedPatchModel out;
  out.artifact = nn::PlanArtifact::map(path);
  QMCU_REQUIRE(out.artifact->kind() == nn::ArtifactModelKind::PatchQuant,
               "artifact does not describe a patch-quant model");

  const std::span<const std::uint8_t> ptch = out.artifact->section(kTagPatch);
  QMCU_REQUIRE(!ptch.empty(), "artifact missing section: PTCH");
  ByteReader r(ptch);
  PatchSpec spec;
  spec.split_layer = r.i32();
  spec.grid_rows = r.i32();
  spec.grid_cols = r.i32();
  const std::uint32_t nbranches = r.u32();
  QMCU_REQUIRE(nbranches <= (1u << 16), "implausible branch count");
  std::vector<BranchQuantConfig> branch_cfgs(nbranches);
  for (BranchQuantConfig& b : branch_cfgs) {
    const std::uint32_t nsteps = r.u32();
    QMCU_REQUIRE(nsteps <= (1u << 16), "implausible step count");
    b.per_step.resize(nsteps);
    for (nn::QuantParams& p : b.per_step) {
      p.scale = r.f32();
      p.zero_point = r.i32();
      p.bits = r.i32();
      QMCU_REQUIRE(p.scale > 0.0f && p.bits >= 2 && p.bits <= 8,
                   "invalid branch quant params in artifact");
    }
  }
  QMCU_REQUIRE(r.done(), "trailing bytes in artifact patch section");

  // The plan is pure receptive-field propagation over the (deserialized)
  // topology — cheap, and exactly what the writer's build_patch_plan ran.
  PatchPlan plan = build_patch_plan(out.artifact->graph(), spec);

  PrecompiledPatchParts parts;
  parts.branch_bias =
      parse_branch_bias(out.artifact->section(kTagBranchBias));
  parts.kernels = out.artifact->bundle();

  out.model = std::make_unique<CompiledPatchQuantModel>(
      out.artifact->graph(), std::move(plan), out.artifact->config(),
      std::move(branch_cfgs), out.artifact->parameters(), std::move(parts),
      tier);
  return out;
}

}  // namespace qmcu::patch
