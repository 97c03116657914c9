#include "quant/histogram.h"

namespace qmcu::quant {

Histogram::Histogram(float lo, float hi, int k) : lo_(lo), hi_(hi) {
  QMCU_REQUIRE(k >= 1, "histogram needs at least one bin");
  QMCU_REQUIRE(lo < hi, "histogram range must be non-degenerate");
  inv_width_ = static_cast<float>(k) / (hi - lo);
  top_ = static_cast<float>(k - 1);
  counts_.assign(static_cast<std::size_t>(k), 0);
}

void Histogram::add(float value) {
  QMCU_REQUIRE(value == value, "cannot histogram NaN");
  ++counts_[static_cast<std::size_t>(bin_of(value))];
  ++total_;
}

void Histogram::add_all(std::span<const float> values) {
  for (float v : values) add(v);
}

std::vector<double> Histogram::probabilities() const {
  std::vector<double> p(counts_.size(), 0.0);
  if (total_ == 0) return p;
  const double inv = 1.0 / static_cast<double>(total_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    p[i] = static_cast<double>(counts_[i]) * inv;
  }
  return p;
}

}  // namespace qmcu::quant
