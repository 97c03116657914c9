#include "patch/patch_executor.h"

#include "nn/ops/float_kernels.h"
#include "patch/region_crop.h"
#include "patch/region_pool.h"

namespace qmcu::patch {

void crop_from_region_into(const nn::Tensor& have, const Region& avail,
                           const Region& want, const nn::TensorShape& full,
                           nn::Tensor& out) {
  QMCU_REQUIRE(have.shape().h == avail.y.size() &&
                   have.shape().w == avail.x.size(),
               "tensor extents must match its declared region");
  const int c = have.shape().c;
  QMCU_REQUIRE(out.shape() == nn::TensorShape(want.y.size(), want.x.size(), c),
               "crop destination shape mismatch");
  crop_rows(have.data().data(), avail, want, full, c, 0.0f, out.data().data(),
            CopySpan{});
}

nn::Tensor crop_from_region(const nn::Tensor& have, const Region& avail,
                            const Region& want,
                            const nn::TensorShape& full) {
  nn::Tensor out(
      nn::TensorShape{want.y.size(), want.x.size(), have.shape().c});
  crop_from_region_into(have, avail, want, full, out);
  return out;
}

PatchExecutor::PatchExecutor(const nn::Graph& g, PatchPlan plan,
                             nn::ops::KernelTier tier)
    : graph_(&g), compiled_(g, std::move(plan), tier) {}

std::vector<nn::Tensor> PatchExecutor::run_branch(const nn::Tensor& input,
                                                  int branch_index,
                                                  const StepHook& hook) const {
  const nn::Graph& g = *graph_;
  const PatchBranch& branch =
      plan().branches[static_cast<std::size_t>(branch_index)];
  std::vector<nn::Tensor> regions(branch.steps.size());

  for (std::size_t s = 0; s < branch.steps.size(); ++s) {
    const BranchStep& step = branch.steps[s];
    const nn::Layer& layer = g.layer(step.layer_id);

    const auto producer_tensor = [&](int input_id,
                                     const Region& want) -> nn::Tensor {
      const int p = branch.step_of(input_id);
      QMCU_ENSURE(p >= 0 && p < static_cast<int>(s),
                  "producer step missing from branch");
      return crop_from_region(regions[static_cast<std::size_t>(p)],
                              branch.steps[static_cast<std::size_t>(p)]
                                  .out_region,
                              want, g.shape(input_id));
    };

    switch (layer.kind) {
      case nn::OpKind::Input:
        regions[s] = crop_from_region(
            input, full_region(input.shape()), step.out_region,
            input.shape());
        break;
      case nn::OpKind::Conv2D:
      case nn::OpKind::DepthwiseConv2D: {
        // Zero padding is exactly what the unclamped crop materialises, so
        // run the kernel pad-free on the region tensor.
        const nn::Tensor padded =
            producer_tensor(layer.inputs[0], step.in_region);
        nn::Layer local = layer;
        local.pad_h = local.pad_w = 0;
        if (layer.kind == nn::OpKind::Conv2D) {
          regions[s] = compiled_.backend().conv2d_f32(padded, local,
                                           g.weights(step.layer_id),
                                           g.bias(step.layer_id));
        } else {
          regions[s] = compiled_.backend().depthwise_conv2d_f32(
              padded, local, g.weights(step.layer_id),
              g.bias(step.layer_id));
        }
        QMCU_ENSURE(regions[s].shape().h == step.out_region.y.size() &&
                        regions[s].shape().w == step.out_region.x.size(),
                    "computed region extent mismatch");
        break;
      }
      case nn::OpKind::MaxPool:
      case nn::OpKind::AvgPool: {
        // Pooling must *exclude* padding from the window (max of an
        // all-negative window, avg divisor) — see region_pool.h.
        const int p = branch.step_of(layer.inputs[0]);
        QMCU_ENSURE(p >= 0, "producer step missing from branch");
        regions[s] = pool_region_f32(
            regions[static_cast<std::size_t>(p)],
            branch.steps[static_cast<std::size_t>(p)].out_region, layer,
            step.out_region, g.shape(layer.inputs[0]));
        break;
      }
      case nn::OpKind::Add: {
        const nn::Tensor a = producer_tensor(layer.inputs[0], step.out_region);
        const nn::Tensor b = producer_tensor(layer.inputs[1], step.out_region);
        regions[s] = nn::ops::add_f32(a, b, layer.act);
        break;
      }
      case nn::OpKind::Concat: {
        std::vector<nn::Tensor> cropped;
        cropped.reserve(layer.inputs.size());
        for (int in : layer.inputs) {
          cropped.push_back(producer_tensor(in, step.out_region));
        }
        std::vector<const nn::Tensor*> ptrs;
        ptrs.reserve(cropped.size());
        for (const nn::Tensor& t : cropped) ptrs.push_back(&t);
        regions[s] = nn::ops::concat_f32(ptrs);
        break;
      }
      default:
        QMCU_REQUIRE(false,
                     "op kind not supported inside a patch stage: " +
                         std::string(nn::to_string(layer.kind)));
    }
    if (hook) hook(branch_index, static_cast<int>(s), regions[s]);
  }
  return regions;
}

std::vector<std::vector<nn::Tensor>> PatchExecutor::run_stage(
    const nn::Tensor& input, const StepHook& hook) const {
  std::vector<std::vector<nn::Tensor>> out;
  out.reserve(plan().branches.size());
  for (int b = 0; b < static_cast<int>(plan().branches.size()); ++b) {
    out.push_back(run_branch(input, b, hook));
  }
  return out;
}

nn::Tensor PatchExecutor::run_stage_assembled(const nn::Tensor& input,
                                              const StepHook& hook) const {
  const nn::Graph& g = *graph_;
  const int split = plan().spec.split_layer;
  nn::Tensor assembled(g.shape(split));
  for (int b = 0; b < static_cast<int>(plan().branches.size()); ++b) {
    const std::vector<nn::Tensor> regions = run_branch(input, b, hook);
    const PatchBranch& branch = plan().branches[static_cast<std::size_t>(b)];
    const BranchStep& last = branch.steps.back();
    QMCU_ENSURE(last.layer_id == split, "branch must end at the cut layer");
    const nn::Tensor& tile = regions.back();
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

nn::Tensor PatchExecutor::run(const nn::Tensor& input,
                              const StepHook& hook) const {
  if (!hook) return compiled_.run(input);
  const nn::Graph& g = *graph_;
  const int split = plan().spec.split_layer;
  std::vector<nn::Tensor> memo(static_cast<std::size_t>(g.size()));
  memo[static_cast<std::size_t>(split)] = run_stage_assembled(input, hook);
  for (int id = split + 1; id < g.size(); ++id) {
    memo[static_cast<std::size_t>(id)] =
        nn::run_layer_f32(g, id, memo, compiled_.backend());
  }
  return std::move(memo[static_cast<std::size_t>(g.output())]);
}

}  // namespace qmcu::patch
