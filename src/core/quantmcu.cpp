#include "core/quantmcu.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "mcu/bitops.h"
#include "nn/compiled_model.h"
#include "patch/region_crop.h"
#include "quant/entropy.h"

namespace qmcu::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Entropy of the model's final feature map (pre-softmax if the graph ends
// in one — softmax collapses the range and would make H(N, b_last) an
// unstable normaliser).
int last_entropy_layer(const nn::Graph& g) {
  int id = g.output();
  if (g.layer(id).kind == nn::OpKind::Softmax) id = g.layer(id).inputs[0];
  return id;
}

// Adds one calibration image's H(float) and H(b) of `fm` to `p`.
void add_profile(const nn::Tensor& fm, int k, FeatureMapProfile& p) {
  const quant::EntropyProfile e =
      quant::entropy_profile(fm, kVdqsCandidateBits, k);
  p.entropy_float += e.entropy_float;
  for (std::size_t j = 0; j < kVdqsCandidateBits.size(); ++j) {
    p.entropy_at_bits[j] += e.entropy_at_bits[j];
  }
}

// Branch step `step`'s feature map. Patch inference is halo-exact, so it
// is the layer-based map `fms[step.layer_id]` cropped to the step's output
// region (zero-filled where that region reaches into padding).
nn::Tensor step_map(const nn::Graph& g, std::span<const nn::Tensor> fms,
                    const patch::BranchStep& step) {
  const nn::TensorShape& shape = g.shape(step.layer_id);
  return patch::crop_from_region(fms[static_cast<std::size_t>(step.layer_id)],
                                 patch::full_region(shape), step.out_region,
                                 shape);
}

}  // namespace

QuantMcuPlan build_quantmcu_plan(const nn::Graph& g, const mcu::Device& dev,
                                 std::span<const nn::Tensor> calibration,
                                 const QuantMcuConfig& cfg) {
  QMCU_REQUIRE(!calibration.empty(), "calibration batch must not be empty");
  QMCU_REQUIRE(cfg.lambda >= 0.0 && cfg.lambda <= 1.0,
               "lambda must be in [0, 1]");
  quant::require_finite_calibration(calibration);

  QuantMcuPlan plan;
  if (cfg.planner == PatchPlannerKind::MinPeak) {
    const mcu::CostModel cm(dev);
    plan.patch_plan = patch::build_patch_plan(
        g, patch::restructure_for_memory(g, cm).spec);
  } else {
    plan.patch_plan =
        patch::build_patch_plan(g, patch::plan_mcunetv2(g, cfg.patch));
  }
  plan.full_precision_bitops = mcu::full_precision_bitops(g);
  plan.tail_bits = std::vector<int>(static_cast<std::size_t>(g.size()), 8);

  // ---- VDPC statistics on the calibration set ----------------------------
  {
    double frac = 0.0;
    for (const nn::Tensor& img : calibration) {
      frac += classify_patches(img, plan.patch_plan, cfg.vdpc)
                  .outlier_fraction();
    }
    plan.calib_outlier_fraction =
        frac / static_cast<double>(calibration.size());
  }

  // ---- VDQS: profile + search (timed — Table II "Time") ------------------
  // One whole-model float pass per calibration image feeds every profile:
  // H(N, b_last), the tail branch's feature maps (when the tail is
  // quantized) and every branch step's map, cropped from the layer-based
  // map it tiles.
  const auto t0 = Clock::now();
  const nn::CompiledModel exec(g);
  const int last_id = last_entropy_layer(g);
  const int split = plan.patch_plan.spec.split_layer;
  const int num_branches = static_cast<int>(plan.patch_plan.branches.size());
  std::vector<FeatureMapProfile> tail_profile(
      static_cast<std::size_t>(g.size() - split - 1));
  // Accumulated entropy profiles per branch/step.
  std::vector<std::vector<FeatureMapProfile>> profiles(
      static_cast<std::size_t>(num_branches));
  for (int b = 0; b < num_branches; ++b) {
    profiles[static_cast<std::size_t>(b)].resize(
        plan.patch_plan.branches[static_cast<std::size_t>(b)].steps.size());
  }

  double h_sum = 0.0;
  for (const nn::Tensor& img : calibration) {
    const std::vector<nn::Tensor> fms = exec.run_all(img);
    h_sum += quant::quantized_activation_entropy(
        fms[static_cast<std::size_t>(last_id)], 8, cfg.histogram_bins);
    if (cfg.quantize_tail) {
      for (int id = split + 1; id < g.size(); ++id) {
        FeatureMapProfile& p =
            tail_profile[static_cast<std::size_t>(id - split - 1)];
        add_profile(fms[static_cast<std::size_t>(id)], cfg.histogram_bins, p);
      }
    }
    for (int b = 0; b < num_branches; ++b) {
      const auto& steps =
          plan.patch_plan.branches[static_cast<std::size_t>(b)].steps;
      for (std::size_t s = 0; s < steps.size(); ++s) {
        add_profile(step_map(g, fms, steps[s]), cfg.histogram_bins,
                    profiles[static_cast<std::size_t>(b)][s]);
      }
    }
  }
  plan.last_output_entropy =
      std::max(1e-6, h_sum / static_cast<double>(calibration.size()));

  const double inv_n = 1.0 / static_cast<double>(calibration.size());
  for (int b = 0; b < num_branches; ++b) {
    const patch::PatchBranch& branch =
        plan.patch_plan.branches[static_cast<std::size_t>(b)];
    for (std::size_t s = 0; s < branch.steps.size(); ++s) {
      FeatureMapProfile& p = profiles[static_cast<std::size_t>(b)][s];
      p.entropy_float *= inv_n;
      for (double& h : p.entropy_at_bits) h *= inv_n;
      p.elements = branch.steps[s].out_elements;
      // In-branch consumers of this step's feature map.
      for (const patch::BranchStep& t : branch.steps) {
        const nn::Layer& l = g.layer(t.layer_id);
        if (l.kind == nn::OpKind::Input || t.macs == 0) continue;
        if (l.inputs[0] == branch.steps[s].layer_id) p.consumer_macs += t.macs;
      }
    }
  }

  plan.mixed_bits.reserve(static_cast<std::size_t>(num_branches));
  plan.searches.reserve(static_cast<std::size_t>(num_branches));
  for (int b = 0; b < num_branches; ++b) {
    // Eqs. 2 and 5 normalise within the dataflow branch being searched
    // (Algorithm 1's N is the branch length): B is the branch's
    // full-precision BitOPs and H(N, b_last) the entropy of the branch's
    // last feature map at its deployed 8-bit width.
    VdqsConfig vcfg;
    vcfg.lambda = cfg.lambda;
    vcfg.weight_bits = cfg.weight_bits;
    vcfg.memory_budget = static_cast<std::int64_t>(
        cfg.memory_fraction * static_cast<double>(dev.sram_bytes));
    vcfg.reference_bitops = std::max<std::int64_t>(
        1, plan.patch_plan.branches[static_cast<std::size_t>(b)].total_macs *
               cfg.weight_bits * vcfg.reference_bits);
    vcfg.last_output_entropy = std::max(
        1e-6, profiles[static_cast<std::size_t>(b)].back().entropy_at_bits[0]);
    VdqsResult r = vdqs_search(profiles[static_cast<std::size_t>(b)], vcfg);
    plan.mixed_bits.push_back(patch::BranchBits{r.bits});
    plan.searches.push_back(std::move(r));
  }

  // ---- tail branch: the shared post-merge feature maps -------------------
  if (cfg.quantize_tail && !tail_profile.empty()) {
    std::int64_t tail_macs = 0;
    for (int id = split + 1; id < g.size(); ++id) {
      FeatureMapProfile& p =
          tail_profile[static_cast<std::size_t>(id - split - 1)];
      p.entropy_float *= inv_n;
      for (double& h : p.entropy_at_bits) h *= inv_n;
      p.elements = g.shape(id).elements();
      for (int c : g.consumers(id)) {
        if (nn::is_mac_op(g.layer(c).kind) && g.layer(c).inputs[0] == id) {
          p.consumer_macs += g.macs(c);
        }
      }
      tail_macs += g.macs(id);
    }
    VdqsConfig vcfg;
    vcfg.lambda = cfg.lambda;
    vcfg.weight_bits = cfg.weight_bits;
    vcfg.memory_budget = static_cast<std::int64_t>(
        cfg.memory_fraction * static_cast<double>(dev.sram_bytes));
    vcfg.reference_bitops = std::max<std::int64_t>(
        1, tail_macs * cfg.weight_bits * vcfg.reference_bits);
    vcfg.last_output_entropy =
        std::max(1e-6, tail_profile.back().entropy_at_bits[0]);
    VdqsResult r = vdqs_search(tail_profile, vcfg);
    for (int id = split + 1; id < g.size(); ++id) {
      plan.tail_bits[static_cast<std::size_t>(id)] =
          r.bits[static_cast<std::size_t>(id - split - 1)];
    }
    plan.searches.push_back(std::move(r));
  }
  plan.search_seconds = seconds_since(t0);
  return plan;
}

namespace {

// Noise bookkeeping for one image's realised schedule.
struct NoiseAccumulator {
  double weighted_rel_mse = 0.0;
  double volume = 0.0;
  double outlier_values = 0.0;
  double crushed_values = 0.0;
  // Σ of (err / (z_ref·σ))² over crushed values: quantization error on an
  // outlier is weighed against the *decision-relevant* scale (the width of
  // the non-outlier band), not the outlier's own magnitude — an error of
  // half the band destroys the information the outlier carried even when
  // it is small relative to the outlier itself.
  double crush_normalized_err = 0.0;
};

// Quantization noise of the shared tail feature maps at `tail_bits`.
void accumulate_tail_noise(const nn::Graph& g, int split,
                           std::span<const nn::Tensor> fms,
                           std::span<const int> tail_bits,
                           NoiseAccumulator& acc) {
  for (int id = split + 1; id < g.size(); ++id) {
    const nn::Tensor& fm = fms[static_cast<std::size_t>(id)];
    const double var = quant::tensor_variance(fm);
    if (var <= 0.0) continue;
    const double rel =
        quant::quantization_mse(fm, tail_bits[static_cast<std::size_t>(id)]) /
        var;
    const double vol = static_cast<double>(fm.elements());
    acc.weighted_rel_mse += rel * vol;
    acc.volume += vol;
  }
}

void accumulate_branch_noise(const nn::Graph& g,
                             const patch::PatchPlan& pplan,
                             std::span<const nn::Tensor> fms,
                             std::span<const patch::BranchBits> realized,
                             const nn::Tensor& input, double z_ref,
                             NoiseAccumulator& acc) {
  // Accuracy-relevant outliers are defined on the input feature map.
  const GaussianFit fit = fit_gaussian(input.data());
  const double tau = z_ref * fit.stddev;
  const auto [lo, hi] = nn::tensor_min_max(input);

  for (std::size_t b = 0; b < pplan.branches.size(); ++b) {
    const patch::PatchBranch& branch = pplan.branches[b];
    const patch::BranchBits& bits = realized[b];
    int min_bits = 8;
    for (std::size_t s = 0; s < branch.steps.size(); ++s) {
      const nn::Tensor fm = step_map(g, fms, branch.steps[s]);
      const int fm_bits = bits.bits[s];
      min_bits = std::min(min_bits, fm_bits);
      const double var = quant::tensor_variance(fm);
      if (var > 0.0) {
        const double rel = quant::quantization_mse(fm, fm_bits) / var;
        const double vol = static_cast<double>(branch.steps[s].out_elements);
        acc.weighted_rel_mse += rel * vol;
        acc.volume += vol;
      }
    }
    // Outlier crush on this patch's input tile.
    const patch::Region tile =
        pplan.input_tile(branch.row, branch.col, input.shape());
    const nn::QuantParams qp = nn::choose_quant_params(lo, hi, min_bits);
    const double band = std::max(1e-12, tau);
    for (int y = tile.y.begin; y < tile.y.end; ++y) {
      for (int x = tile.x.begin; x < tile.x.end; ++x) {
        for (int c = 0; c < input.shape().c; ++c) {
          const double v = input.at(y, x, c);
          if (std::abs(v - fit.mean) <= tau) continue;
          acc.outlier_values += 1.0;
          if (min_bits >= 8) continue;
          acc.crushed_values += 1.0;
          const double err =
              v - qp.quantize_dequantize(static_cast<float>(v));
          acc.crush_normalized_err += (err / band) * (err / band);
        }
      }
    }
  }
}

QuantMcuEvaluation finalize(const NoiseAccumulator& acc,
                            const AccuracyModel& model,
                            QuantMcuEvaluation ev) {
  ev.noise.any_quantization = true;
  ev.noise.mean_relative_mse =
      acc.volume > 0.0 ? acc.weighted_rel_mse / acc.volume : 0.0;
  ev.noise.crushed_outlier_fraction =
      acc.outlier_values > 0.0 ? acc.crushed_values / acc.outlier_values : 0.0;
  ev.noise.crush_severity =
      acc.crushed_values > 0.0
          ? acc.crush_normalized_err / acc.crushed_values
          : 0.0;
  ev.top1_penalty_pp = model.top1_penalty_pp(ev.noise);
  ev.top5_penalty_pp = model.top5_penalty_pp(ev.noise);
  ev.map_penalty_pp = model.map_penalty_pp(ev.noise);
  return ev;
}

}  // namespace

QuantMcuEvaluation evaluate_quantmcu(const nn::Graph& g,
                                     const QuantMcuPlan& plan,
                                     const mcu::CostModel& cost_model,
                                     std::span<const nn::Tensor> eval_images,
                                     const QuantMcuConfig& cfg,
                                     const AccuracyModel& acc_model) {
  QMCU_REQUIRE(!eval_images.empty(), "evaluation batch must not be empty");
  const nn::CompiledModel exec(g);
  const int split = plan.patch_plan.spec.split_layer;
  bool tail_quantized = false;
  for (int id = split + 1; id < g.size(); ++id) {
    tail_quantized =
        tail_quantized || plan.tail_bits[static_cast<std::size_t>(id)] < 8;
  }

  QuantMcuEvaluation ev;
  NoiseAccumulator acc;
  for (const nn::Tensor& img : eval_images) {
    PatchClassification cls;
    if (cfg.enable_vdpc) {
      cls = classify_patches(img, plan.patch_plan, cfg.vdpc);
    } else {
      cls.outlier.assign(plan.patch_plan.branches.size(), false);
    }
    ev.outlier_patch_fraction += cls.outlier_fraction();

    // Realised schedule: outlier branches at uniform 8-bit.
    std::vector<patch::BranchBits> realized = plan.mixed_bits;
    for (std::size_t b = 0; b < realized.size(); ++b) {
      if (cls.outlier[b]) {
        realized[b].bits.assign(realized[b].bits.size(), 8);
      }
    }

    const patch::PatchCost cost =
        patch::evaluate_patch_cost(g, plan.patch_plan, realized,
                                   plan.tail_bits, cost_model,
                                   cfg.weight_bits);
    ev.mean_bitops += static_cast<double>(cost.bitops);
    ev.mean_latency_ms += cost.latency_ms;
    ev.mean_peak_bytes += static_cast<double>(cost.peak_bytes);

    // One float pass feeds both noise measurements.
    const std::vector<nn::Tensor> fms = exec.run_all(img);
    accumulate_branch_noise(g, plan.patch_plan, fms, realized, img,
                            acc_model.z_ref, acc);
    if (tail_quantized) {
      accumulate_tail_noise(g, split, fms, plan.tail_bits, acc);
    }
  }
  const double inv = 1.0 / static_cast<double>(eval_images.size());
  ev.mean_bitops *= inv;
  ev.mean_latency_ms *= inv;
  ev.mean_peak_bytes *= inv;
  ev.outlier_patch_fraction *= inv;
  return finalize(acc, acc_model, ev);
}

std::vector<patch::BranchQuantConfig> make_branch_quant_configs(
    const nn::Graph& g, const QuantMcuPlan& plan,
    std::span<const quant::LayerRange> ranges) {
  QMCU_REQUIRE(static_cast<int>(ranges.size()) == g.size(),
               "ranges must cover every layer");
  std::vector<patch::BranchQuantConfig> out;
  out.reserve(plan.patch_plan.branches.size());
  for (std::size_t b = 0; b < plan.patch_plan.branches.size(); ++b) {
    const patch::PatchBranch& branch = plan.patch_plan.branches[b];
    patch::BranchQuantConfig cfg;
    cfg.per_step.reserve(branch.steps.size());
    for (std::size_t s = 0; s < branch.steps.size(); ++s) {
      const int id = branch.steps[s].layer_id;
      cfg.per_step.push_back(nn::choose_quant_params(
          ranges[static_cast<std::size_t>(id)].min_v,
          ranges[static_cast<std::size_t>(id)].max_v,
          plan.mixed_bits[b].bits[s]));
    }
    out.push_back(std::move(cfg));
  }
  return out;
}

nn::ActivationQuantConfig make_deployment_quant_config(
    const nn::Graph& g, const QuantMcuPlan& plan,
    std::span<const quant::LayerRange> ranges) {
  QMCU_REQUIRE(static_cast<int>(ranges.size()) == g.size(),
               "ranges must cover every layer");
  nn::ActivationQuantConfig cfg;
  cfg.params.reserve(ranges.size());
  const int split = plan.patch_plan.spec.split_layer;
  for (int id = 0; id < g.size(); ++id) {
    // Stage layers deploy at 8-bit here (the outlier-class path and the
    // shared accumulation buffer); the per-branch sub-byte parameters come
    // from make_branch_quant_configs.
    const int bits =
        id <= split ? 8 : plan.tail_bits[static_cast<std::size_t>(id)];
    cfg.params.push_back(nn::choose_quant_params(
        ranges[static_cast<std::size_t>(id)].min_v,
        ranges[static_cast<std::size_t>(id)].max_v, bits));
  }
  return cfg;
}

QuantMcuEvaluation evaluate_uniform_patch(
    const nn::Graph& g, const patch::PatchPlan& patch_plan,
    const mcu::CostModel& cost_model, std::span<const nn::Tensor> eval_images,
    const AccuracyModel& acc_model) {
  QMCU_REQUIRE(!eval_images.empty(), "evaluation batch must not be empty");
  const nn::CompiledModel exec(g);
  const std::vector<patch::BranchBits> bits8 =
      patch::uniform_branch_bits(patch_plan, 8);
  const std::vector<int> tail8(static_cast<std::size_t>(g.size()), 8);

  // Every image runs the same uniform schedule, so it has one cost.
  const patch::PatchCost cost =
      patch::evaluate_patch_cost(g, patch_plan, bits8, tail8, cost_model);
  QuantMcuEvaluation ev;
  ev.mean_bitops = static_cast<double>(cost.bitops);
  ev.mean_latency_ms = cost.latency_ms;
  ev.mean_peak_bytes = static_cast<double>(cost.peak_bytes);
  NoiseAccumulator acc;
  for (const nn::Tensor& img : eval_images) {
    accumulate_branch_noise(g, patch_plan, exec.run_all(img), bits8, img,
                            acc_model.z_ref, acc);
  }
  return finalize(acc, acc_model, ev);
}

}  // namespace qmcu::core
