#include "nn/quant_params.h"

#include <algorithm>
#include <cmath>

namespace qmcu::nn {

std::int32_t QuantParams::quantize(float real) const {
  QMCU_ENSURE(scale > 0.0f, "quantization scale must be positive");
  QMCU_REQUIRE(!std::isnan(real), "cannot quantize NaN");
  const float q = std::nearbyint(real / scale) + static_cast<float>(zero_point);
  const float clamped = std::clamp(q, static_cast<float>(qmin()),
                                   static_cast<float>(qmax()));
  return static_cast<std::int32_t>(clamped);
}

QuantParams choose_quant_params(float min_v, float max_v, int bits) {
  QMCU_REQUIRE(bits >= 2 && bits <= 8, "activation bits must be in [2, 8]");
  QMCU_REQUIRE(min_v <= max_v, "min must not exceed max");
  // Widen to include zero so it is exactly representable.
  min_v = std::min(min_v, 0.0f);
  max_v = std::max(max_v, 0.0f);

  QuantParams p;
  p.bits = bits;
  const float qrange =
      static_cast<float>(p.qmax()) - static_cast<float>(p.qmin());
  float range = max_v - min_v;
  if (range <= 0.0f) {
    // Degenerate (all-zero) tensor: any positive scale round-trips zero.
    p.scale = 1.0f;
    p.zero_point = 0;
    return p;
  }
  p.scale = range / qrange;
  // Zero-point that maps min_v -> qmin exactly, then rounded into range.
  const float zp_real = static_cast<float>(p.qmin()) - min_v / p.scale;
  p.zero_point = static_cast<std::int32_t>(std::nearbyint(
      std::clamp(zp_real, static_cast<float>(p.qmin()),
                 static_cast<float>(p.qmax()))));
  return p;
}

QuantParams choose_symmetric_quant_params(float absmax, int bits) {
  QMCU_REQUIRE(bits >= 2 && bits <= 8, "weight bits must be in [2, 8]");
  QuantParams p;
  p.bits = bits;
  p.zero_point = 0;
  p.scale = (absmax > 0.0f)
                ? absmax / static_cast<float>(p.qmax())
                : 1.0f;
  return p;
}

}  // namespace qmcu::nn
