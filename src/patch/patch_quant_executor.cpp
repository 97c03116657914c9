#include "patch/patch_quant_executor.h"

#include <cmath>

#include "nn/ops/int8_kernels.h"
#include "nn/ops/requantize.h"
#include "patch/region_crop.h"
#include "patch/region_pool.h"

namespace qmcu::patch {

PatchQuantExecutor::PatchQuantExecutor(
    const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
    nn::ops::KernelTier tier,
    std::shared_ptr<const nn::QuantizedParameters> params)
    : PatchQuantExecutor(g, std::move(plan), std::move(cfg), {}, tier,
                         std::move(params)) {}

PatchQuantExecutor::PatchQuantExecutor(
    const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
    std::vector<BranchQuantConfig> branch_cfgs, nn::ops::KernelTier tier,
    std::shared_ptr<const nn::QuantizedParameters> params)
    : graph_(&g),
      compiled_(g, std::move(plan), std::move(cfg), std::move(branch_cfgs),
                tier, std::move(params)) {}

std::vector<nn::QTensor> PatchQuantExecutor::run_branch(
    const nn::QTensor& qinput, int branch_index) const {
  const nn::Graph& g = *graph_;
  const nn::QuantizedParameters& params = *compiled_.shared_parameters();
  const PatchBranch& branch =
      plan().branches[static_cast<std::size_t>(branch_index)];
  std::vector<nn::QTensor> regions(branch.steps.size());

  for (std::size_t s = 0; s < branch.steps.size(); ++s) {
    const BranchStep& step = branch.steps[s];
    const nn::Layer& layer = g.layer(step.layer_id);
    const nn::QuantParams& out_p =
        compiled_.step_params(branch_index, static_cast<int>(s));

    const auto producer_tensor = [&](int input_id,
                                     const Region& want) -> nn::QTensor {
      const int p = branch.step_of(input_id);
      QMCU_ENSURE(p >= 0 && p < static_cast<int>(s),
                  "producer step missing from branch");
      return crop_from_region_q(regions[static_cast<std::size_t>(p)],
                                branch.steps[static_cast<std::size_t>(p)]
                                    .out_region,
                                want, g.shape(input_id));
    };

    switch (layer.kind) {
      case nn::OpKind::Input: {
        // The input patch tile is quantized straight into the branch's
        // params (mixed mode stores it sub-byte, uniform mode at int8).
        nn::QTensor crop = crop_from_region_q(
            qinput, full_region(g.shape(step.layer_id)), step.out_region,
            g.shape(step.layer_id));
        regions[s] = compiled_.backend().requantize(crop, out_p);
        break;
      }
      case nn::OpKind::Conv2D:
      case nn::OpKind::DepthwiseConv2D: {
        // Out-of-bounds crop positions carry the producer's zero point —
        // the quantized encoding of real 0, i.e. genuine zero padding.
        const nn::QTensor padded =
            producer_tensor(layer.inputs[0], step.in_region);
        nn::Layer local = layer;
        local.pad_h = local.pad_w = 0;
        const std::span<const std::int32_t> bias =
            compiled_.branch_configs().empty()
                ? params.bias[static_cast<std::size_t>(step.layer_id)]
                : std::span<const std::int32_t>(
                      compiled_.branch_bias()
                          [static_cast<std::size_t>(branch_index)][s]);
        if (layer.kind == nn::OpKind::Conv2D) {
          regions[s] = compiled_.backend().conv2d(
              padded, local,
              params.weights[static_cast<std::size_t>(step.layer_id)].data,
              params.weights[static_cast<std::size_t>(step.layer_id)].params,
              bias, out_p);
        } else {
          regions[s] = compiled_.backend().depthwise_conv2d(
              padded, local,
              params.weights[static_cast<std::size_t>(step.layer_id)].data,
              params.weights[static_cast<std::size_t>(step.layer_id)].params,
              bias, out_p);
        }
        break;
      }
      case nn::OpKind::MaxPool:
      case nn::OpKind::AvgPool: {
        // Pooling excludes padding from the window; see region_pool.h.
        const int p = branch.step_of(layer.inputs[0]);
        QMCU_ENSURE(p >= 0, "producer step missing from branch");
        regions[s] = pool_region_q(
            regions[static_cast<std::size_t>(p)],
            branch.steps[static_cast<std::size_t>(p)].out_region, layer,
            step.out_region, g.shape(layer.inputs[0]));
        break;
      }
      case nn::OpKind::Add: {
        const nn::QTensor a =
            producer_tensor(layer.inputs[0], step.out_region);
        const nn::QTensor b =
            producer_tensor(layer.inputs[1], step.out_region);
        regions[s] = compiled_.backend().add(a, b, layer.act, out_p);
        break;
      }
      case nn::OpKind::Concat: {
        std::vector<nn::QTensor> cropped;
        cropped.reserve(layer.inputs.size());
        for (int in : layer.inputs) {
          cropped.push_back(producer_tensor(in, step.out_region));
        }
        std::vector<const nn::QTensor*> ptrs;
        ptrs.reserve(cropped.size());
        for (const nn::QTensor& t : cropped) ptrs.push_back(&t);
        regions[s] = compiled_.backend().concat(ptrs, out_p);
        break;
      }
      default:
        QMCU_REQUIRE(false,
                     "op kind not supported inside a patch stage: " +
                         std::string(nn::to_string(layer.kind)));
    }
  }
  return regions;
}

nn::QTensor PatchQuantExecutor::run_stage_assembled(
    const nn::Tensor& input) const {
  const nn::Graph& g = *graph_;
  const int split = plan().spec.split_layer;
  const int input_layer = g.inputs().front();
  const nn::QTensor qinput = nn::quantize(
      input,
      compiled_.config().params[static_cast<std::size_t>(input_layer)]);

  nn::QTensor assembled(
      g.shape(split),
      compiled_.effective_params()[static_cast<std::size_t>(split)]);
  for (int b = 0; b < static_cast<int>(plan().branches.size()); ++b) {
    const std::vector<nn::QTensor> regions = run_branch(qinput, b);
    const PatchBranch& branch = plan().branches[static_cast<std::size_t>(b)];
    const BranchStep& last = branch.steps.back();
    QMCU_ENSURE(last.layer_id == split, "branch must end at the cut layer");
    // The branch slice is requantized into the shared accumulation
    // buffer's parameters (identity in uniform mode).
    const nn::QTensor tile =
        compiled_.backend().requantize(regions.back(), assembled.params());
    for (int y = last.out_region.y.begin; y < last.out_region.y.end; ++y) {
      for (int x = last.out_region.x.begin; x < last.out_region.x.end; ++x) {
        for (int c = 0; c < assembled.shape().c; ++c) {
          assembled.at(y, x, c) = tile.at(y - last.out_region.y.begin,
                                          x - last.out_region.x.begin, c);
        }
      }
    }
  }
  return assembled;
}

nn::QTensor PatchQuantExecutor::run(const nn::Tensor& input) const {
  return compiled_.run(input);
}

}  // namespace qmcu::patch
