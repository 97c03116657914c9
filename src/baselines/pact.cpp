#include "baselines/pact.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "nn/compiled_model.h"

namespace qmcu::baselines {

namespace {

// Quantization MSE of `values` clipped to [lo_clip, clip] at `bits`.
double clipped_quant_mse(std::span<const float> values, float clip, int bits,
                         bool signed_range) {
  const float lo = signed_range ? -clip : 0.0f;
  const nn::QuantParams qp = nn::choose_quant_params(lo, clip, bits);
  double mse = 0.0;
  for (float v : values) {
    const float clamped = std::clamp(v, lo, clip);
    const double e =
        static_cast<double>(v) - qp.quantize_dequantize(clamped);
    mse += e * e;
  }
  return values.empty() ? 0.0 : mse / static_cast<double>(values.size());
}

}  // namespace

MethodResult run_pact(const nn::Graph& g,
                      std::span<const nn::Tensor> calibration,
                      const PactConfig& cfg) {
  QMCU_REQUIRE(!calibration.empty(), "calibration batch must not be empty");
  const auto t0 = std::chrono::steady_clock::now();

  // Cache float feature maps of the calibration batch.
  const nn::CompiledModel exec(g);
  std::vector<std::vector<nn::Tensor>> fms;
  fms.reserve(calibration.size());
  for (const nn::Tensor& img : calibration) fms.push_back(exec.run_all(img));

  // Per-layer clip learning: line search refined around the incumbent.
  for (int id = 0; id < g.size(); ++id) {
    float absmax = 0.0f;
    bool has_negative = false;
    for (const auto& run : fms) {
      for (float v : run[static_cast<std::size_t>(id)].data()) {
        absmax = std::max(absmax, std::abs(v));
        has_negative = has_negative || v < 0.0f;
      }
    }
    if (absmax == 0.0f) continue;

    float best_clip = absmax;
    double best_mse = std::numeric_limits<double>::infinity();
    float lo = absmax * 0.05f;
    float hi = absmax;
    for (int iter = 0; iter < cfg.refine_iterations; ++iter) {
      for (int c = 0; c < cfg.clip_candidates; ++c) {
        const float clip =
            lo + (hi - lo) * static_cast<float>(c) /
                     static_cast<float>(cfg.clip_candidates - 1);
        double mse = 0.0;
        for (const auto& run : fms) {
          mse += clipped_quant_mse(run[static_cast<std::size_t>(id)].data(),
                                   clip, cfg.bits, has_negative);
        }
        if (mse < best_mse) {
          best_mse = mse;
          best_clip = clip;
        }
      }
      // Narrow the bracket around the incumbent (simulates the gradient
      // steps converging on α).
      const float width = (hi - lo) * 0.5f;
      lo = std::max(absmax * 0.01f, best_clip - width * 0.5f);
      hi = std::min(absmax, best_clip + width * 0.5f);
      if (hi - lo < absmax * 1e-3f) break;
    }
  }

  MethodResult r;
  r.name = "Pact";
  r.wa_bits = std::to_string(cfg.bits) + "/" + std::to_string(cfg.bits);
  r.act_bits.assign(static_cast<std::size_t>(g.size()), cfg.bits);
  r.weight_bits.assign(static_cast<std::size_t>(g.size()), cfg.bits);
  r.search_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return r;
}

}  // namespace qmcu::baselines
