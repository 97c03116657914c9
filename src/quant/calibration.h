// calibration.h — post-training range calibration.
//
// Runs the float reference executor over a calibration batch, records the
// running min/max of every feature map (TFLite post-training-quantization
// style), and materialises per-layer QuantParams for a chosen bitwidth
// assignment. The bitwidth vector is exactly what VDPC/VDQS (or a baseline
// quantizer) decides per feature map.
#pragma once

#include <span>
#include <vector>

#include "nn/executor.h"
#include "nn/graph.h"
#include "nn/tensor.h"

namespace qmcu::quant {

struct LayerRange {
  float min_v = 0.0f;
  float max_v = 0.0f;
  bool seen = false;
};

class RangeObserver {
 public:
  explicit RangeObserver(const nn::Graph& g);

  // Folds one batch element's feature maps into the running ranges.
  void observe(std::span<const nn::Tensor> feature_maps);

  [[nodiscard]] const std::vector<LayerRange>& ranges() const {
    return ranges_;
  }

 private:
  std::vector<LayerRange> ranges_;
};

// Throws std::invalid_argument naming the first image of `inputs` that
// holds a NaN or an infinity. Ranges and entropies of such a batch are
// meaningless (a NaN range, an infinite histogram grid), so every
// calibration entry point checks its batch before the first forward pass.
void require_finite_calibration(std::span<const nn::Tensor> inputs);

// Runs `inputs` through the float executor and returns per-layer ranges.
// Rejects a non-finite batch (require_finite_calibration).
std::vector<LayerRange> calibrate_ranges(const nn::Graph& g,
                                         std::span<const nn::Tensor> inputs);

// Builds the quantized-executor config from calibrated ranges and a
// per-layer bitwidth assignment.
nn::ActivationQuantConfig make_quant_config(const nn::Graph& g,
                                            std::span<const LayerRange> ranges,
                                            std::span<const int> bits);

}  // namespace qmcu::quant
