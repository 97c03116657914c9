// image_classification — the paper's headline workload: ImageNet-class
// classification under a 256 KB SRAM budget.
//
// Demonstrates the full execution stack rather than just the planner:
//   * float reference inference (layer-based);
//   * integer (TFLite-Micro contract) inference from calibrated ranges;
//   * uniform-int8 patch-based inference (the Fig. 1a dataflow),
//     bit-identical to the layer-based integer model;
// and then compares the deployment options a practitioner would weigh.
#include <algorithm>
#include <cstdio>

#include "core/quantmcu.h"
#include "data/synthetic.h"
#include "models/zoo.h"
#include "nn/compiled_model.h"
#include "nn/memory_planner.h"
#include "patch/compiled_patch_model.h"
#include "quant/calibration.h"

namespace {

int argmax(const qmcu::nn::Tensor& t) {
  const auto d = t.data();
  return static_cast<int>(std::max_element(d.begin(), d.end()) - d.begin());
}

}  // namespace

int main() {
  using namespace qmcu;

  models::ModelConfig mcfg;
  mcfg.width_multiplier = 0.35f;
  mcfg.resolution = 96;
  mcfg.num_classes = 100;
  const nn::Graph net = models::make_mobilenet_v2(mcfg);

  data::DataConfig dcfg;
  dcfg.resolution = mcfg.resolution;
  const data::SyntheticDataset dataset(dcfg);
  const nn::Tensor image = dataset.image(42);
  const std::vector<nn::Tensor> calibration = dataset.batch(0, 2);

  // --- 1. float reference --------------------------------------------------
  const nn::CompiledModel ref(net);
  const nn::Tensor ref_out = ref.run(image);
  std::printf("float reference:    class %3d (p = %.3f)\n", argmax(ref_out),
              ref_out.data()[static_cast<std::size_t>(argmax(ref_out))]);

  // --- 2. integer inference --------------------------------------------------
  const auto ranges = quant::calibrate_ranges(net, calibration);
  const auto qcfg8 =
      quant::make_quant_config(net, ranges, nn::uniform_bits(net, 8));
  const nn::CompiledQuantModel qmodel(net, qcfg8);
  const nn::QTensor q_out = qmodel.run(image);
  const nn::Tensor q_deq = nn::dequantize(q_out);
  std::printf("int8 (TFLM-style):  class %3d (p = %.3f)\n", argmax(q_deq),
              q_deq.data()[static_cast<std::size_t>(argmax(q_deq))]);

  // --- 3. patch-based int8 inference is bit-exact ----------------------------
  const patch::PatchPlan plan =
      patch::build_patch_plan(net, patch::plan_mcunetv2(net, {3, 4}));
  const patch::CompiledPatchQuantModel patch_model(net, plan, qcfg8);
  const nn::QTensor patch_out = patch_model.run(image);
  const bool identical =
      patch_out.params() == q_out.params() &&
      std::equal(q_out.data().begin(), q_out.data().end(),
                 patch_out.data().begin(), patch_out.data().end());
  std::printf("patch-based int8:   class %3d — %s\n",
              argmax(nn::dequantize(patch_out)),
              identical ? "bit-identical to layer-based int8"
                        : "MISMATCH (bug!)");
  std::printf("  %zu branches, %.1f%% redundant MACs in the patch stage, "
              "%lld KB arena\n",
              plan.branches.size(), 100.0 * plan.redundancy_ratio(),
              static_cast<long long>(patch_model.arena_bytes() / 1024));

  // --- 4. deployment choices -------------------------------------------------
  const mcu::Device device = mcu::arduino_nano_33_ble_sense();
  const mcu::CostModel cm(device);
  const std::vector<int> bits8 = nn::uniform_bits(net, 8);
  const std::int64_t layer_peak =
      nn::plan_layer_based(net, bits8).peak_bytes;
  std::printf("\ndeployment on %s (%lld KB SRAM):\n", device.name.c_str(),
              static_cast<long long>(device.sram_bytes / 1024));
  std::printf("  layer-based int8: peak %4lld KB, %6.0f ms %s\n",
              static_cast<long long>(layer_peak / 1024),
              cm.graph_latency_ms(net, bits8),
              layer_peak > device.sram_bytes ? "(DOES NOT FIT)" : "");

  core::QuantMcuConfig qmc;
  const core::QuantMcuPlan qplan =
      core::build_quantmcu_plan(net, device, calibration, qmc);
  const core::QuantMcuEvaluation ev = core::evaluate_quantmcu(
      net, qplan, cm, dataset.batch(10, 2), qmc);
  std::printf("  QuantMCU:         peak %4.0f KB, %6.0f ms, est. Top-1 loss "
              "%.2f pp\n",
              ev.mean_peak_bytes / 1024, ev.mean_latency_ms,
              ev.top1_penalty_pp);
  return 0;
}
