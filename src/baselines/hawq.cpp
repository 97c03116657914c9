#include "baselines/hawq.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "nn/compiled_model.h"
#include "quant/fake_quant.h"

namespace qmcu::baselines {

MethodResult run_hawq(const nn::Graph& g,
                      std::span<const nn::Tensor> calibration,
                      const HawqConfig& cfg) {
  QMCU_REQUIRE(!calibration.empty(), "calibration batch must not be empty");
  const auto t0 = std::chrono::steady_clock::now();

  const nn::CompiledModel exec(g);
  const int output = g.output();

  // --- perturbation sensitivity per layer --------------------------------
  std::vector<double> sensitivity(static_cast<std::size_t>(g.size()), 0.0);
  for (const nn::Tensor& img : calibration) {
    const std::vector<nn::Tensor> base = exec.run_all(img);
    // Every feature map is probed, including the network input — it is a
    // quantizable feature map like any other, and skipping it would give it
    // zero sensitivity and make it the first demotion victim.
    for (int id = 0; id < g.size(); ++id) {
      const nn::Tensor& fm = base[static_cast<std::size_t>(id)];
      const auto [lo, hi] = nn::tensor_min_max(fm);
      const nn::QuantParams qp =
          nn::choose_quant_params(lo, hi, cfg.probe_bits);
      std::vector<nn::Tensor> memo = base;
      memo[static_cast<std::size_t>(id)] = nn::fake_quantize(fm, qp);
      const std::vector<nn::Tensor> perturbed = exec.run_from(memo, id);
      sensitivity[static_cast<std::size_t>(id)] += quant::output_mse(
          perturbed[static_cast<std::size_t>(output)],
          base[static_cast<std::size_t>(output)]);
    }
  }

  // --- greedy allocation: demote the least sensitive per BitOPs saved ----
  std::vector<int> act_bits(static_cast<std::size_t>(g.size()), 8);
  std::vector<int> weight_bits(static_cast<std::size_t>(g.size()), 8);
  const double bitops8 = static_cast<double>(
      mixed_weight_bitops(g, act_bits, weight_bits));
  const double target = cfg.target_bitops_ratio * bitops8;

  const auto current_bitops = [&]() {
    return static_cast<double>(mixed_weight_bitops(g, act_bits, weight_bits));
  };

  while (current_bitops() > target) {
    int victim = -1;
    double victim_score = std::numeric_limits<double>::infinity();
    for (int id = 0; id < g.size(); ++id) {
      if (act_bits[static_cast<std::size_t>(id)] <= 2) continue;
      // BitOPs saved by demoting this feature map one step.
      std::int64_t consumer_macs = 0;
      for (int c : g.consumers(id)) {
        if (nn::is_mac_op(g.layer(c).kind) && g.layer(c).inputs[0] == id) {
          consumer_macs += g.macs(c);
        }
      }
      if (consumer_macs == 0) continue;
      const double saving = static_cast<double>(consumer_macs);
      const double score =
          sensitivity[static_cast<std::size_t>(id)] / saving;
      if (score < victim_score) {
        victim_score = score;
        victim = id;
      }
    }
    if (victim < 0) break;
    const int from = act_bits[static_cast<std::size_t>(victim)];
    act_bits[static_cast<std::size_t>(victim)] = from == 8 ? 4 : 2;
    // HAWQ-V3 quantizes weights to match the activation tier of the layers
    // consuming this feature map.
    for (int c : g.consumers(victim)) {
      if (nn::is_mac_op(g.layer(c).kind) && g.layer(c).inputs[0] == victim) {
        weight_bits[static_cast<std::size_t>(c)] =
            std::min(weight_bits[static_cast<std::size_t>(c)],
                     act_bits[static_cast<std::size_t>(victim)] * 2);
        weight_bits[static_cast<std::size_t>(c)] = std::clamp(
            weight_bits[static_cast<std::size_t>(c)], 2, 8);
      }
    }
  }

  MethodResult r;
  r.name = "HAWQ-V3";
  r.wa_bits = "MP/MP";
  r.act_bits = std::move(act_bits);
  r.weight_bits = std::move(weight_bits);
  r.search_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return r;
}

}  // namespace qmcu::baselines
