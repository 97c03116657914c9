#include "quant/calibration.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace qmcu::quant {

RangeObserver::RangeObserver(const nn::Graph& g)
    : ranges_(static_cast<std::size_t>(g.size())) {}

void RangeObserver::observe(std::span<const nn::Tensor> feature_maps) {
  QMCU_REQUIRE(feature_maps.size() == ranges_.size(),
               "feature map count must match graph size");
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    const auto [lo, hi] = nn::tensor_min_max(feature_maps[i]);
    LayerRange& r = ranges_[i];
    if (!r.seen) {
      r = {lo, hi, true};
    } else {
      r.min_v = std::min(r.min_v, lo);
      r.max_v = std::max(r.max_v, hi);
    }
  }
}

void require_finite_calibration(std::span<const nn::Tensor> inputs) {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto d = inputs[i].data();
    const bool finite = std::all_of(d.begin(), d.end(), [](float v) {
      return std::isfinite(v);
    });
    QMCU_REQUIRE(finite, "calibration image " + std::to_string(i) +
                             " holds a NaN or an infinity");
  }
}

std::vector<LayerRange> calibrate_ranges(const nn::Graph& g,
                                         std::span<const nn::Tensor> inputs) {
  QMCU_REQUIRE(!inputs.empty(), "calibration needs at least one input");
  require_finite_calibration(inputs);
  const nn::Executor exec(g);
  RangeObserver observer(g);
  for (const nn::Tensor& in : inputs) {
    const std::vector<nn::Tensor> fms = exec.run_all(in);
    observer.observe(fms);
  }
  return observer.ranges();
}

nn::ActivationQuantConfig make_quant_config(const nn::Graph& g,
                                            std::span<const LayerRange> ranges,
                                            std::span<const int> bits) {
  QMCU_REQUIRE(static_cast<int>(ranges.size()) == g.size(),
               "ranges must cover every layer");
  QMCU_REQUIRE(static_cast<int>(bits.size()) == g.size(),
               "bits must cover every layer");
  nn::ActivationQuantConfig cfg;
  cfg.params.reserve(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    QMCU_REQUIRE(ranges[i].seen, "layer was never observed in calibration");
    cfg.params.push_back(nn::choose_quant_params(
        ranges[i].min_v, ranges[i].max_v, bits[i]));
  }
  return cfg;
}

}  // namespace qmcu::quant
