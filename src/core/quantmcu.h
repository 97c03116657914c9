// quantmcu.h — the QuantMCU pipeline (the paper's system, end to end).
//
// Offline (build_quantmcu_plan):
//   1. plan MCUNetV2-style patch inference (split layer + grid);
//   2. calibrate activation statistics on a calibration batch;
//   3. VDPC: measure how often each patch position carries outlier values;
//   4. VDQS: per dataflow branch, profile feature-map entropies at the
//      candidate bitwidths and run the quantization-score search with the
//      Eq. 7 memory repair (Algorithm 1). The measured wall-clock of
//      profiling + search is the paper's Table II "Time" column.
//
// Profiling makes one layer-based float pass (nn::Executor::run_all) per
// calibration image. Patch inference is halo-exact, so each branch step's
// feature map is that pass's map cropped to the step's out_region; no
// patch model is built.
//
// Online (evaluate_quantmcu): per input image, classify patches (Eq. 1);
// outlier-class branches execute uniformly at 8-bit, non-outlier branches
// at their searched mixed-precision assignment. The evaluator prices
// BitOPs / latency / peak SRAM of every image's realised schedule and
// aggregates the quantization-noise measurements that feed AccuracyModel,
// again from one run_all pass per image (branch maps as crops).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/accuracy_model.h"
#include "core/vdpc.h"
#include "core/vdqs.h"
#include "mcu/cost_model.h"
#include "mcu/device.h"
#include "nn/graph.h"
#include "nn/tensor.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "patch/patch_cost.h"
#include "patch/patch_plan.h"
#include "patch/restructuring.h"
#include "quant/calibration.h"

namespace qmcu::core {

// How QuantMCU picks its underlying patch plan: the MCUNetV2 heuristic
// (fixed grid, stage to /4 resolution) or the Cipolletta-style exhaustive
// minimum-peak restructuring. The paper's Table I peaks (QuantMCU below
// even Cipolletta) imply the aggressive plan: mixed precision absorbs the
// extra halo recomputation that a deep split costs.
enum class PatchPlannerKind { McuNetV2, MinPeak };

struct QuantMcuConfig {
  VdpcConfig vdpc{};                // φ
  double lambda = 0.6;              // Eq. 6 weight (Table III sweep)
  PatchPlannerKind planner = PatchPlannerKind::McuNetV2;
  // k of Eq. 3. Deliberately coarse: with k = 16 bins, 8-bit and 4-bit
  // quantization preserve nearly all *binned* entropy while 2-bit visibly
  // destroys it, which is what lets Eq. 6 trade Φ against Ω at the paper's
  // λ operating points (k >> 2^b would make any sub-byte choice look
  // catastrophic and pin the search at 8-bit).
  int histogram_bins = 16;
  patch::McuNetV2Options patch{};   // grid + stage selection
  int weight_bits = 8;
  // Eq. 7 budget M as a fraction of device SRAM (the tensor arena share;
  // the rest holds runtime state and scratch).
  double memory_fraction = 0.5;
  bool enable_vdpc = true;  // false = "QuantMCU w/o VDPC" ablation (Fig. 4)
  // Apply VDQS to the shared post-merge feature maps as well (treated as
  // one more dataflow branch). Table I's BitOPs reductions (2.2x average)
  // are only reachable when the tail is quantized too; the stage-only
  // variant is kept as an ablation knob.
  bool quantize_tail = true;
};

struct QuantMcuPlan {
  patch::PatchPlan patch_plan;
  std::vector<patch::BranchBits> mixed_bits;  // non-outlier branch config
  std::vector<VdqsResult> searches;           // per branch
  std::vector<int> tail_bits;                 // per layer after the cut
  // Wall-clock of VDQS: the per-image float pass and entropy profiles of
  // every branch step and tail map, plus the searches.
  double search_seconds = 0.0;
  double calib_outlier_fraction = 0.0;  // VDPC statistics on calibration set
  double last_output_entropy = 0.0;     // H(N, b_last)
  std::int64_t full_precision_bitops = 0;  // B
};

QuantMcuPlan build_quantmcu_plan(const nn::Graph& g, const mcu::Device& dev,
                                 std::span<const nn::Tensor> calibration,
                                 const QuantMcuConfig& cfg);

struct QuantMcuEvaluation {
  double mean_bitops = 0.0;
  double mean_latency_ms = 0.0;
  double mean_peak_bytes = 0.0;
  double outlier_patch_fraction = 0.0;
  NoiseSummary noise{};
  double top1_penalty_pp = 0.0;
  double top5_penalty_pp = 0.0;
  double map_penalty_pp = 0.0;
};

QuantMcuEvaluation evaluate_quantmcu(const nn::Graph& g,
                                     const QuantMcuPlan& plan,
                                     const mcu::CostModel& cost_model,
                                     std::span<const nn::Tensor> eval_images,
                                     const QuantMcuConfig& cfg,
                                     const AccuracyModel& acc = {});

// Convenience for the uniform-8-bit patch baselines (MCUNetV2 row of
// Table I): the same evaluator with every branch pinned to 8-bit and VDPC
// disabled (classification is irrelevant when both classes run int8).
QuantMcuEvaluation evaluate_uniform_patch(
    const nn::Graph& g, const patch::PatchPlan& patch_plan,
    const mcu::CostModel& cost_model, std::span<const nn::Tensor> eval_images,
    const AccuracyModel& acc = {});

// --- materialising the plan into a runnable quantized deployment ----------
// Turns the searched bitwidths into concrete QuantParams over calibrated
// ranges, ready for patch::CompiledPatchQuantModel: per-branch step params
// (the non-outlier mixed-precision path) and the tail/whole-graph config
// (which also covers the outlier-class 8-bit path).
std::vector<patch::BranchQuantConfig> make_branch_quant_configs(
    const nn::Graph& g, const QuantMcuPlan& plan,
    std::span<const quant::LayerRange> ranges);

nn::ActivationQuantConfig make_deployment_quant_config(
    const nn::Graph& g, const QuantMcuPlan& plan,
    std::span<const quant::LayerRange> ranges);

}  // namespace qmcu::core
