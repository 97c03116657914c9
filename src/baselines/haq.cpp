#include "baselines/haq.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "nn/executor.h"
#include "nn/rng.h"
#include "quant/fake_quant.h"

namespace qmcu::baselines {

namespace {

constexpr std::array<int, 3> kBits{8, 4, 2};

}  // namespace

MethodResult run_haq(const nn::Graph& g,
                     std::span<const nn::Tensor> calibration,
                     const HaqConfig& cfg) {
  QMCU_REQUIRE(!calibration.empty(), "calibration batch must not be empty");
  QMCU_REQUIRE(cfg.episodes > 0, "need at least one episode");
  const auto t0 = std::chrono::steady_clock::now();

  const std::vector<quant::LayerRange> ranges =
      quant::calibrate_ranges(g, calibration);

  // Float reference outputs for the fidelity reward.
  const nn::Executor exec(g);
  std::vector<nn::Tensor> reference;
  reference.reserve(calibration.size());
  for (const nn::Tensor& img : calibration) reference.push_back(exec.run(img));
  double ref_energy = 0.0;
  std::int64_t ref_count = 0;
  for (const nn::Tensor& t : reference) {
    for (float v : t.data()) ref_energy += static_cast<double>(v) * v;
    ref_count += t.elements();
  }
  const double ref_power =
      ref_count > 0 ? std::max(1e-12, ref_energy / static_cast<double>(
                                                       ref_count))
                    : 1e-12;

  std::vector<int> current(static_cast<std::size_t>(g.size()), 8);
  std::vector<int> weight_bits(static_cast<std::size_t>(g.size()), 8);
  const double bitops8 = static_cast<double>(
      mixed_weight_bitops(g, current, weight_bits));
  const double target = cfg.target_bitops_ratio * bitops8;

  nn::ops::KernelBackend backend;
  const auto episode_reward = [&](std::span<const int> bits) {
    // The fidelity measurement always runs — it is the expensive part of a
    // HAQ episode and the honest source of this method's search time.
    double mse = 0.0;
    for (std::size_t i = 0; i < calibration.size(); ++i) {
      const nn::Tensor out =
          quant::run_fake_quantized(g, ranges, bits, calibration[i], backend);
      mse += quant::output_mse(out, reference[i]);
    }
    mse /= static_cast<double>(calibration.size());
    const double fidelity = -mse / ref_power;  // 0 is perfect
    const double cost = static_cast<double>(mixed_weight_bitops(
        g, bits, weight_bits));
    const double over = std::max(0.0, cost - target) / bitops8;
    // HAQ treats the resource budget as a hard constraint: while the
    // configuration is over budget, descent on cost dominates; once under,
    // the agent optimises fidelity alone.
    if (over > 0.0) return -cfg.cost_weight * (1.0 + over);
    return fidelity;
  };

  nn::Rng rng(cfg.seed);
  double current_reward = episode_reward(current);
  std::vector<int> best = current;
  double best_reward = current_reward;

  for (int ep = 0; ep < cfg.episodes; ++ep) {
    // Action: re-assign the bitwidth of a random layer (DDPG's continuous
    // action collapsed to the deployable choices).
    std::vector<int> proposal = current;
    const int layer =
        static_cast<int>(rng.uniform() * static_cast<double>(g.size()));
    const int choice = static_cast<int>(rng.uniform() * kBits.size());
    proposal[static_cast<std::size_t>(std::min(layer, g.size() - 1))] =
        kBits[static_cast<std::size_t>(
            std::min<std::size_t>(choice, kBits.size() - 1))];

    const double reward = episode_reward(proposal);
    const double temperature =
        cfg.initial_temperature *
        (1.0 - static_cast<double>(ep) / static_cast<double>(cfg.episodes));
    const bool accept =
        reward > current_reward ||
        rng.uniform() < std::exp((reward - current_reward) /
                                 std::max(1e-6, temperature));
    if (accept) {
      current = std::move(proposal);
      current_reward = reward;
    }
    if (current_reward > best_reward) {
      best = current;
      best_reward = current_reward;
    }
  }

  MethodResult r;
  r.name = "HAQ";
  r.wa_bits = "MP/MP";
  r.act_bits = std::move(best);
  r.weight_bits = std::move(weight_bits);
  r.search_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return r;
}

}  // namespace qmcu::baselines
