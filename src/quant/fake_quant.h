// fake_quant.h — simulated-quantization forward pass.
//
// Runs the float graph but fake-quantizes (quantize + dequantize) every
// layer's output at a per-layer bitwidth using calibrated ranges — the
// standard "simulated quantization" forward of QAT frameworks. Used by the
// HAQ baseline's episode reward and by accuracy analyses that need the
// network's output under a candidate bitwidth assignment without building
// an integer model.
#pragma once

#include <span>

#include "nn/ops/backend.h"
#include "quant/calibration.h"

namespace qmcu::quant {

// Output of the graph under the assignment. `bits[i]` applies to layer i's
// output feature map; ranges come from calibrate_ranges(). The float ops run
// on `backend`; a search that calls this per episode keeps one backend, so
// its scratch arena grows once.
nn::Tensor run_fake_quantized(const nn::Graph& g,
                              std::span<const LayerRange> ranges,
                              std::span<const int> bits,
                              const nn::Tensor& input,
                              nn::ops::KernelBackend& backend);

// Mean squared error between two tensors of identical shape.
double output_mse(const nn::Tensor& a, const nn::Tensor& b);

}  // namespace qmcu::quant
