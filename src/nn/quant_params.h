// quant_params.h — affine (scale + zero-point) quantization parameters.
//
// Arithmetic contract matches TensorFlow Lite / TFLite-Micro:
//   real = scale * (q - zero_point)
// with q saturating to the signed range of the target bitwidth
// [-2^(b-1), 2^(b-1) - 1]. Sub-byte widths (4 and 2 bits) use the same
// contract with a narrower range, as CMix-NN does.
#pragma once

#include <cstdint>

#include "nn/check.h"

namespace qmcu::nn {

struct QuantParams {
  float scale = 1.0f;
  std::int32_t zero_point = 0;
  int bits = 8;

  [[nodiscard]] std::int32_t qmin() const { return -(1 << (bits - 1)); }
  [[nodiscard]] std::int32_t qmax() const { return (1 << (bits - 1)) - 1; }

  // Saturating quantization of a real value.
  [[nodiscard]] std::int32_t quantize(float real) const;

  // Exact dequantization of a quantized value.
  [[nodiscard]] float dequantize(std::int32_t q) const {
    return scale * static_cast<float>(q - zero_point);
  }

  // Round-trip: the value the quantized representation actually stores.
  [[nodiscard]] float quantize_dequantize(float real) const {
    return dequantize(quantize(real));
  }

  friend bool operator==(const QuantParams&, const QuantParams&) = default;
};

// Chooses asymmetric affine parameters covering [min_v, max_v] (the range is
// widened to include 0 so that zero is exactly representable, as TFLite
// requires for padding correctness).
QuantParams choose_quant_params(float min_v, float max_v, int bits);

// Chooses symmetric parameters (zero_point == 0) covering [-absmax, absmax].
// Used for weights, matching the TFLite per-tensor weight convention.
QuantParams choose_symmetric_quant_params(float absmax, int bits);

}  // namespace qmcu::nn
