// histogram.h — fixed-range histograms of activation values.
//
// Implements the empirical distribution of the paper's Eq. 3: the value
// range is divided uniformly into k bins and each activation contributes to
// exactly one bin (values on/beyond the boundary clamp into the edge bins,
// so quantization saturation mass is preserved rather than dropped).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/check.h"

namespace qmcu::quant {

class Histogram {
 public:
  // Range [lo, hi] with k uniform bins; requires lo < hi, k >= 1.
  Histogram(float lo, float hi, int k);

  // Bin of `value`: floor((value - lo) * k / (hi - lo)), clamped into
  // [0, k-1] before the integer conversion, so infinities land in the edge
  // bins. Branch-free; NaN has no bin and maps to bin 0 (add() rejects it).
  [[nodiscard]] int bin_of(float value) const {
    float pos = (value - lo_) * inv_width_;
    pos = pos >= 0.0f ? pos : 0.0f;
    pos = pos <= top_ ? pos : top_;
    return static_cast<int>(pos);
  }

  // Throws std::invalid_argument for NaN.
  void add(float value);
  void add_all(std::span<const float> values);

  [[nodiscard]] int bins() const { return static_cast<int>(counts_.size()); }
  [[nodiscard]] std::int64_t total() const { return total_; }
  [[nodiscard]] std::span<const std::int64_t> counts() const {
    return counts_;
  }
  [[nodiscard]] float lo() const { return lo_; }
  [[nodiscard]] float hi() const { return hi_; }

  // Empirical probabilities p_j = x_j / n (Eq. 3). Empty histogram -> all 0.
  [[nodiscard]] std::vector<double> probabilities() const;

 private:
  float lo_;
  float hi_;
  float inv_width_;
  float top_;  // k - 1, the last bin as a float
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
};

}  // namespace qmcu::quant
