#include "baselines/rusci.h"

#include <algorithm>
#include <chrono>

#include "nn/compiled_model.h"
#include "nn/memory_planner.h"
#include "quant/calibration.h"

namespace qmcu::baselines {

namespace {

int next_lower(int bits) { return bits == 8 ? 4 : 2; }

}  // namespace

MethodResult run_rusci(const nn::Graph& g,
                       std::span<const nn::Tensor> calibration,
                       const RusciConfig& cfg) {
  QMCU_REQUIRE(!calibration.empty(), "calibration batch must not be empty");
  QMCU_REQUIRE(cfg.sram_budget > 0 && cfg.flash_budget > 0,
               "budgets must be positive");
  const auto t0 = std::chrono::steady_clock::now();

  const std::vector<quant::LayerRange> ranges =
      quant::calibrate_ranges(g, calibration);

  MethodResult r;
  r.name = "Rusci et al.";
  r.wa_bits = "MP/MP";
  r.act_bits.assign(static_cast<std::size_t>(g.size()), 8);
  r.weight_bits.assign(static_cast<std::size_t>(g.size()), 8);

  const auto fm_bytes = [&](int id) {
    return g.shape(id).bytes(r.act_bits[static_cast<std::size_t>(id)]);
  };

  const auto validate = [&]() {
    // Deployment validation: quantized inference over the calibration batch
    // at the current assignment (the result is only checked for finiteness;
    // accuracy is deliberately not consulted, as in the original method).
    const nn::ActivationQuantConfig qcfg =
        quant::make_quant_config(g, ranges, r.act_bits);
    const nn::CompiledQuantModel qexec(g, qcfg);
    for (int pass = 0; pass < cfg.validation_passes; ++pass) {
      for (const nn::Tensor& img : calibration) {
        (void)qexec.run(img);
      }
    }
  };

  // Activation cascade: while any producer/consumer pair of feature maps
  // exceeds the SRAM budget, demote the larger one.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int id = 0; id < g.size() && !changed; ++id) {
      const nn::Layer& l = g.layer(id);
      for (int in : l.inputs) {
        if (fm_bytes(in) + fm_bytes(id) <= cfg.sram_budget) continue;
        const int victim = fm_bytes(in) >= fm_bytes(id) ? in : id;
        if (r.act_bits[static_cast<std::size_t>(victim)] <= 2) continue;
        r.act_bits[static_cast<std::size_t>(victim)] =
            next_lower(r.act_bits[static_cast<std::size_t>(victim)]);
        validate();
        changed = true;
        break;
      }
    }
  }

  // Weight cascade: demote the heaviest layers until the model fits flash.
  const auto flash_bytes = [&]() {
    std::int64_t total = 0;
    for (int id = 0; id < g.size(); ++id) {
      total += (g.weight_count(id) *
                    r.weight_bits[static_cast<std::size_t>(id)] +
                7) /
               8;
    }
    return total;
  };
  while (flash_bytes() > cfg.flash_budget) {
    int victim = -1;
    std::int64_t victim_bytes = -1;
    for (int id = 0; id < g.size(); ++id) {
      if (r.weight_bits[static_cast<std::size_t>(id)] <= 2) continue;
      const std::int64_t bytes =
          (g.weight_count(id) * r.weight_bits[static_cast<std::size_t>(id)] +
           7) /
          8;
      if (bytes > victim_bytes) {
        victim_bytes = bytes;
        victim = id;
      }
    }
    if (victim < 0) break;  // everything already at 2 bits
    r.weight_bits[static_cast<std::size_t>(victim)] =
        next_lower(r.weight_bits[static_cast<std::size_t>(victim)]);
    validate();
  }

  r.search_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return r;
}

}  // namespace qmcu::baselines
