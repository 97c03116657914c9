// patch_oracle.h — an independent per-step interpreter of a patch plan,
// the oracle the patch engine's bit-exactness tests compare against.
//
// PatchOracle computes what patch::CompiledPatchQuantModel computes, in the
// plainest form: every branch step into a fresh heap tensor, halo crops and
// pool windows over whole region tensors, each branch's cut-map slice
// requantized into the tail's params and copied into the assembled map, and
// the tail layer by layer through nn::run_layer_q_into. It reads only the
// model's compile-time tables (plan, configs, branch biases, quantized
// weights) and runs every kernel on its own Reference-tier KernelBackend,
// so it shares no kernel table, arena, scratch, weight panel, band schedule
// or packed map with the engine.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kernel_values.h"
#include "nn/compiled_model.h"
#include "nn/ops/backend.h"
#include "nn/ops/im2col.h"
#include "nn/ops/int8_kernels.h"
#include "nn/rng.h"
#include "patch/compiled_patch_model.h"
#include "patch/region_crop.h"
#include "patch/region_pool.h"
#include "quant/calibration.h"

namespace qmcu::test {

// Region `want` of a map with full extent `full`, cropped from `have`
// (region `avail` of it); out-of-map positions take the zero point.
inline nn::QTensor crop_q(const nn::QTensor& have, const patch::Region& avail,
                          const patch::Region& want,
                          const nn::TensorShape& full) {
  nn::QTensor out(
      nn::TensorShape{want.y.size(), want.x.size(), have.shape().c},
      have.params());
  patch::crop_from_region_q_into(have, avail, want, full, out);
  return out;
}

// Pools `out_region` of MaxPool/AvgPool layer `l` from `have` (region
// `avail` of a map with full extent `full`), padding excluded.
inline nn::QTensor pool_q(const nn::QTensor& have, const patch::Region& avail,
                          const nn::Layer& l, const patch::Region& out_region,
                          const nn::TensorShape& full) {
  nn::QTensor out(nn::TensorShape{out_region.y.size(), out_region.x.size(),
                                  have.shape().c},
                  have.params());
  const nn::ops::AvgPoolMultipliers avg(l.kernel_h * l.kernel_w);
  patch::pool_region_q_into(have, avail, l, out_region, full, &avg, out);
  return out;
}

class PatchOracle {
 public:
  explicit PatchOracle(const patch::CompiledPatchQuantModel& model)
      : model_(&model), backend_(nn::ops::KernelTier::Reference) {}

  // The reassembled cut-layer feature map, at the tail's params.
  nn::QTensor run_stage(const nn::Tensor& input) {
    const patch::CompiledPatchQuantModel& m = *model_;
    const nn::Graph& g = m.graph();
    const patch::PatchPlan& plan = m.plan();
    const int split = plan.spec.split_layer;
    const nn::QTensor qinput = nn::quantize(
        input, m.config().params[static_cast<std::size_t>(g.inputs().front())]);
    nn::QTensor assembled(
        g.shape(split), m.effective_params()[static_cast<std::size_t>(split)]);
    for (int b = 0; b < static_cast<int>(plan.branches.size()); ++b) {
      const std::vector<nn::QTensor> regions = run_branch(qinput, b);
      const patch::BranchStep& last =
          plan.branches[static_cast<std::size_t>(b)].steps.back();
      QMCU_ENSURE(last.layer_id == split, "branch must end at the cut layer");
      // The slice is requantized into the assembled map's params (an
      // identity copy in uniform mode).
      const nn::QTensor tile =
          value_of(backend_, &nn::ops::KernelBackend::requantize_into,
                   nn::QTensor(regions.back().shape(), assembled.params()),
                   regions.back());
      const patch::Region& r = last.out_region;
      for (int y = r.y.begin; y < r.y.end; ++y) {
        for (int x = r.x.begin; x < r.x.end; ++x) {
          for (int c = 0; c < assembled.shape().c; ++c) {
            assembled.at(y, x, c) = tile.at(y - r.y.begin, x - r.x.begin, c);
          }
        }
      }
    }
    return assembled;
  }

  // The network's output: run_stage, then the tail layer by layer.
  nn::QTensor run(const nn::Tensor& input) {
    const patch::CompiledPatchQuantModel& m = *model_;
    const nn::Graph& g = m.graph();
    const int split = m.plan().spec.split_layer;
    std::vector<nn::QTensor> memo(static_cast<std::size_t>(g.size()));
    memo[static_cast<std::size_t>(split)] = run_stage(input);
    for (int id = split + 1; id < g.size(); ++id) {
      nn::QTensor& out = memo[static_cast<std::size_t>(id)] = nn::QTensor(
          g.shape(id), m.effective_params()[static_cast<std::size_t>(id)]);
      nn::run_layer_q_into(g, id, memo, *m.shared_parameters(), backend_,
                           out);
    }
    return std::move(memo[static_cast<std::size_t>(g.output())]);
  }

 private:
  // Branch `b`'s step maps, one region tensor per step.
  std::vector<nn::QTensor> run_branch(const nn::QTensor& qinput, int b) {
    using KB = nn::ops::KernelBackend;
    const patch::CompiledPatchQuantModel& m = *model_;
    const nn::Graph& g = m.graph();
    const nn::QuantizedParameters& params = *m.shared_parameters();
    const patch::PatchBranch& branch =
        m.plan().branches[static_cast<std::size_t>(b)];
    std::vector<nn::QTensor> regions(branch.steps.size());
    for (std::size_t s = 0; s < branch.steps.size(); ++s) {
      const patch::BranchStep& step = branch.steps[s];
      const nn::Layer& layer = g.layer(step.layer_id);
      const nn::QuantParams& out_p = m.step_params(b, static_cast<int>(s));
      const auto producer = [&](int input_id, const patch::Region& want) {
        const int p = branch.step_of(input_id);
        QMCU_ENSURE(p >= 0 && p < static_cast<int>(s),
                    "producer step missing from branch");
        return crop_q(regions[static_cast<std::size_t>(p)],
                      branch.steps[static_cast<std::size_t>(p)].out_region,
                      want, g.shape(input_id));
      };
      switch (layer.kind) {
        case nn::OpKind::Input: {
          // The input tile is requantized into the branch's first params.
          const nn::QTensor tile =
              crop_q(qinput, patch::full_region(g.shape(step.layer_id)),
                     step.out_region, g.shape(step.layer_id));
          regions[s] = value_of(backend_, &KB::requantize_into,
                                nn::QTensor(tile.shape(), out_p), tile);
          break;
        }
        case nn::OpKind::Conv2D:
        case nn::OpKind::DepthwiseConv2D: {
          // The crop carries the halo; out-of-map positions hold the
          // producer's zero point, which is genuine zero padding.
          const nn::QTensor padded =
              producer(layer.inputs[0], step.in_region);
          nn::Layer local = layer;
          local.pad_h = local.pad_w = 0;
          const auto& w = params.weights[static_cast<std::size_t>(step.layer_id)];
          const std::span<const std::int32_t> bias =
              m.branch_configs().empty()
                  ? params.bias[static_cast<std::size_t>(step.layer_id)]
                  : std::span<const std::int32_t>(
                        m.branch_bias()[static_cast<std::size_t>(b)][s]);
          const bool conv = layer.kind == nn::OpKind::Conv2D;
          const nn::TensorShape os = nn::ops::conv_output_shape(
              padded.shape(), local,
              conv ? local.out_channels : padded.shape().c);
          regions[s] = value_of(
              backend_, conv ? &KB::conv2d_into : &KB::depthwise_conv2d_into,
              nn::QTensor(os, out_p), padded, local, w.data, w.params, bias);
          break;
        }
        case nn::OpKind::MaxPool:
        case nn::OpKind::AvgPool: {
          const int p = branch.step_of(layer.inputs[0]);
          QMCU_ENSURE(p >= 0, "producer step missing from branch");
          regions[s] = pool_q(regions[static_cast<std::size_t>(p)],
                              branch.steps[static_cast<std::size_t>(p)]
                                  .out_region,
                              layer, step.out_region,
                              g.shape(layer.inputs[0]));
          break;
        }
        case nn::OpKind::Add: {
          const nn::QTensor lhs = producer(layer.inputs[0], step.out_region);
          const nn::QTensor rhs = producer(layer.inputs[1], step.out_region);
          regions[s] = value_of(backend_, &KB::add_into,
                                nn::QTensor(lhs.shape(), out_p), lhs, rhs,
                                layer.act);
          break;
        }
        case nn::OpKind::Concat: {
          std::vector<nn::QTensor> parts;
          parts.reserve(layer.inputs.size());
          for (int in : layer.inputs) {
            parts.push_back(producer(in, step.out_region));
          }
          std::vector<const nn::QTensor*> ptrs;
          for (const nn::QTensor& t : parts) ptrs.push_back(&t);
          const nn::TensorShape os{step.out_region.y.size(),
                                   step.out_region.x.size(),
                                   g.shape(step.layer_id).c};
          regions[s] = value_of(backend_, &KB::concat_into,
                                nn::QTensor(os, out_p),
                                std::span<const nn::QTensor* const>(ptrs));
          break;
        }
        default:
          QMCU_REQUIRE(false, "op kind not supported inside a patch stage: " +
                                  std::string(nn::to_string(layer.kind)));
      }
    }
    return regions;
  }

  const patch::CompiledPatchQuantModel* model_;
  nn::ops::KernelBackend backend_;
};

// Mixed-mode branch configs for `plan`: per-step params over the
// calibrated ranges, each step's width drawn from `bits` with `seed`.
inline std::vector<patch::BranchQuantConfig> random_branch_cfgs(
    const patch::PatchPlan& plan, std::span<const quant::LayerRange> ranges,
    std::span<const int> bits, std::uint64_t seed) {
  nn::Rng rng(seed);
  std::vector<patch::BranchQuantConfig> cfgs(plan.branches.size());
  for (std::size_t b = 0; b < plan.branches.size(); ++b) {
    for (const patch::BranchStep& step : plan.branches[b].steps) {
      const auto& r = ranges[static_cast<std::size_t>(step.layer_id)];
      const int pick = static_cast<int>(rng.uniform() * bits.size()) %
                       static_cast<int>(bits.size());
      cfgs[b].per_step.push_back(nn::choose_quant_params(
          r.min_v, r.max_v, bits[static_cast<std::size_t>(pick)]));
    }
  }
  return cfgs;
}

}  // namespace qmcu::test
