#include "baselines/method.h"

#include <algorithm>
#include <cmath>

#include "core/vdpc.h"
#include "nn/compiled_model.h"
#include "nn/memory_planner.h"
#include "nn/ops/int8_kernels.h"
#include "quant/entropy.h"

namespace qmcu::baselines {

std::int64_t mixed_weight_bitops(const nn::Graph& g,
                                 std::span<const int> act_bits,
                                 std::span<const int> weight_bits) {
  QMCU_REQUIRE(static_cast<int>(act_bits.size()) == g.size(),
               "act_bits must cover every layer");
  QMCU_REQUIRE(static_cast<int>(weight_bits.size()) == g.size(),
               "weight_bits must cover every layer");
  std::int64_t total = 0;
  for (int id = 0; id < g.size(); ++id) {
    const nn::Layer& l = g.layer(id);
    if (!nn::is_mac_op(l.kind)) continue;
    total += g.macs(id) * weight_bits[static_cast<std::size_t>(id)] *
             act_bits[static_cast<std::size_t>(l.inputs[0])];
  }
  return total;
}

MethodMetrics evaluate_method(const nn::Graph& g, const MethodResult& method,
                              std::span<const nn::Tensor> eval_images,
                              std::string_view model_name,
                              const core::AccuracyModel& acc) {
  QMCU_REQUIRE(!eval_images.empty(), "evaluation batch must not be empty");
  QMCU_REQUIRE(static_cast<int>(method.act_bits.size()) == g.size(),
               "act_bits must cover every layer");

  MethodMetrics m;
  m.bitops = mixed_weight_bitops(g, method.act_bits, method.weight_bits);
  m.peak_bytes = nn::plan_layer_based(g, method.act_bits).peak_bytes;

  // --- measured quantization noise ---------------------------------------
  const nn::CompiledModel exec(g);
  double weighted_rel_mse = 0.0;
  double volume = 0.0;
  double crush_err = 0.0;
  double outliers = 0.0;
  double crushed = 0.0;

  // Weight quantization noise (independent of inputs).
  for (int id = 0; id < g.size(); ++id) {
    if (!nn::is_mac_op(g.layer(id).kind) || !g.has_parameters(id)) continue;
    const auto w = g.weights(id);
    const int wb = method.weight_bits[static_cast<std::size_t>(id)];
    float absmax = 0.0f;
    for (float v : w) absmax = std::max(absmax, std::abs(v));
    const nn::QuantParams qp = nn::choose_symmetric_quant_params(absmax, wb);
    double mse = 0.0;
    double var = 0.0;
    for (float v : w) {
      const double e = v - qp.quantize_dequantize(v);
      mse += e * e;
      var += static_cast<double>(v) * v;
    }
    if (var > 0.0) {
      weighted_rel_mse += (mse / var) * static_cast<double>(w.size());
      volume += static_cast<double>(w.size());
    }
  }

  for (const nn::Tensor& img : eval_images) {
    const std::vector<nn::Tensor> fms = exec.run_all(img);
    for (int id = 0; id < g.size(); ++id) {
      const nn::Tensor& fm = fms[static_cast<std::size_t>(id)];
      const double var = quant::tensor_variance(fm);
      if (var <= 0.0) continue;
      const int bits = method.act_bits[static_cast<std::size_t>(id)];
      const double rel = quant::quantization_mse(fm, bits) / var;
      const double vol = static_cast<double>(fm.elements());
      weighted_rel_mse += rel * vol;
      volume += vol;

      // Outlier crush, measured on *every* feature map against its own
      // distribution: whole-network quantizers (unlike VDPC-guarded
      // QuantMCU) have no mechanism routing outlier-carrying data to 8-bit.
      // Errors are weighed against the non-outlier band width (see
      // core/quantmcu.cpp NoiseAccumulator note).
      const core::GaussianFit fit = core::fit_gaussian(fm.data());
      if (fit.stddev <= 0.0) continue;
      const double tau = acc.z_ref * fit.stddev;
      const auto [lo, hi] = nn::tensor_min_max(fm);
      const nn::QuantParams qp = nn::choose_quant_params(lo, hi, bits);
      for (float v : fm.data()) {
        if (std::abs(static_cast<double>(v) - fit.mean) <= tau) continue;
        outliers += 1.0;
        if (bits >= 8) continue;
        crushed += 1.0;
        const double e = (v - qp.quantize_dequantize(v)) / tau;
        crush_err += e * e;
      }
    }
  }

  m.noise.any_quantization = true;
  m.noise.mean_relative_mse = volume > 0.0 ? weighted_rel_mse / volume : 0.0;
  m.noise.crushed_outlier_fraction = outliers > 0.0 ? crushed / outliers : 0.0;
  m.noise.crush_severity = crushed > 0.0 ? crush_err / crushed : 0.0;
  m.penalty_pp = acc.top1_penalty_pp(m.noise);
  m.top1 = core::base_accuracy(model_name).imagenet_top1 - m.penalty_pp;
  return m;
}

}  // namespace qmcu::baselines
