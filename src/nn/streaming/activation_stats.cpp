#include "nn/streaming/activation_stats.h"

#include <algorithm>
#include <cmath>

#include "nn/check.h"

namespace qmcu::nn::streaming {

ActivationStatsTracker::ActivationStatsTracker(ActivationStatsConfig cfg)
    : cfg_(cfg) {
  QMCU_REQUIRE(cfg_.ema > 0.0f && cfg_.ema <= 1.0f,
               "EMA weight must be in (0, 1]");
  QMCU_REQUIRE(cfg_.bins >= 1, "need at least one histogram bin");
  QMCU_REQUIRE(cfg_.sample_stride >= 1, "sample stride must be >= 1");
  QMCU_REQUIRE(cfg_.saturation_budget > 0.0f,
               "saturation budget must be positive");
}

void ActivationStatsTracker::observe(int layer_id, const nn::QTensor& t) {
  const nn::QuantParams& p = t.params();
  LayerStats& s = layers_[layer_id];
  if (!s.hist.has_value()) {
    s.cal_lo = p.dequantize(p.qmin());
    s.cal_hi = p.dequantize(p.qmax());
    // A degenerate range (scale 0 cannot happen, but be safe) still gets a
    // valid histogram.
    const float hi = s.cal_hi > s.cal_lo ? s.cal_hi : s.cal_lo + 1.0f;
    s.hist.emplace(s.cal_lo, hi, cfg_.bins);
  }
  const auto qmin = static_cast<std::int8_t>(p.qmin());
  const auto qmax = static_cast<std::int8_t>(p.qmax());
  // A rail that IS the zero point (ReLU layers calibrate to [0, hi], so
  // zero lands on qmin) carries the activation's legitimate zero mass —
  // codes there are not clipping evidence and must not count.
  const auto zp = static_cast<std::int8_t>(p.zero_point);
  const bool count_lo = qmin != zp;
  const bool count_hi = qmax != zp;
  const std::span<const std::int8_t> data = t.data();
  float frame_min = 0.0f;
  float frame_max = 0.0f;
  std::int64_t frame_n = 0;
  std::int64_t frame_lo = 0;
  std::int64_t frame_hi = 0;
  for (std::size_t i = 0; i < data.size();
       i += static_cast<std::size_t>(cfg_.sample_stride)) {
    const std::int8_t q = data[i];
    frame_lo += (count_lo && q == qmin) ? 1 : 0;
    frame_hi += (count_hi && q == qmax) ? 1 : 0;
    const float v = p.dequantize(q);
    frame_min = frame_n != 0 ? std::min(frame_min, v) : v;
    frame_max = frame_n != 0 ? std::max(frame_max, v) : v;
    ++frame_n;
    s.hist->add(v);
  }
  if (frame_n == 0) return;
  s.samples += frame_n;
  s.sat_lo += frame_lo;
  s.sat_hi += frame_hi;
  const double flo =
      static_cast<double>(frame_lo) / static_cast<double>(frame_n);
  const double fhi =
      static_cast<double>(frame_hi) / static_cast<double>(frame_n);
  if (!s.ema_seeded) {
    // First frame after deployment: this IS the baseline. Steady-state
    // rail mass and span coverage get recorded here; drift_of scores only
    // later excess over them.
    s.ema_min = frame_min;
    s.ema_max = frame_max;
    s.sat_lo_base = s.sat_lo_ema = flo;
    s.sat_hi_base = s.sat_hi_ema = fhi;
    const double span = static_cast<double>(s.cal_hi) - s.cal_lo;
    s.used_base =
        span > 0.0 ? std::clamp((static_cast<double>(frame_max) - frame_min) /
                                    span,
                                0.0, 1.0)
                   : 1.0;
    s.ema_seeded = true;
  } else {
    const double a = static_cast<double>(cfg_.ema);
    s.ema_min += cfg_.ema * (frame_min - s.ema_min);
    s.ema_max += cfg_.ema * (frame_max - s.ema_max);
    s.sat_lo_ema += a * (flo - s.sat_lo_ema);
    s.sat_hi_ema += a * (fhi - s.sat_hi_ema);
  }
  ++observations_;
}

double ActivationStatsTracker::drift_of(const LayerStats& s) const {
  if (s.samples == 0 || !s.ema_seeded) return 0.0;
  // Rail-mass growth over the deployment baseline, per side (one side
  // widening while the other empties must not cancel out).
  const double sat_excess = std::max(0.0, s.sat_lo_ema - s.sat_lo_base) +
                            std::max(0.0, s.sat_hi_ema - s.sat_hi_base);
  const double sat_term =
      sat_excess / static_cast<double>(cfg_.saturation_budget);
  // Span-coverage loss versus the baseline: losing a quarter of the
  // coverage the layer had at deployment scores 1.0.
  const double span = static_cast<double>(s.cal_hi) - s.cal_lo;
  const double used =
      span > 0.0
          ? std::clamp((static_cast<double>(s.ema_max) - s.ema_min) / span,
                       0.0, 1.0)
          : 1.0;
  const double shrink_term = std::max(0.0, (s.used_base - used) * 4.0);
  return std::max(sat_term, shrink_term);
}

double ActivationStatsTracker::drift_score() const {
  double score = 0.0;
  for (const auto& [id, s] : layers_) score = std::max(score, drift_of(s));
  return score;
}

double ActivationStatsTracker::layer_drift(int layer_id) const {
  const auto it = layers_.find(layer_id);
  return it == layers_.end() ? 0.0 : drift_of(it->second);
}

double ActivationStatsTracker::saturation_fraction(int layer_id) const {
  const auto it = layers_.find(layer_id);
  if (it == layers_.end() || it->second.samples == 0) return 0.0;
  return static_cast<double>(it->second.sat_lo + it->second.sat_hi) /
         static_cast<double>(it->second.samples);
}

double ActivationStatsTracker::range_utilization(int layer_id) const {
  const auto it = layers_.find(layer_id);
  if (it == layers_.end() || !it->second.ema_seeded) return 1.0;
  const LayerStats& s = it->second;
  const double span = static_cast<double>(s.cal_hi) - s.cal_lo;
  if (span <= 0.0) return 1.0;
  return std::clamp((static_cast<double>(s.ema_max) - s.ema_min) / span, 0.0,
                    1.0);
}

std::vector<quant::LayerRange> ActivationStatsTracker::drifted_ranges(
    int num_layers) const {
  std::vector<quant::LayerRange> ranges(
      static_cast<std::size_t>(num_layers));
  for (const auto& [id, s] : layers_) {
    if (id < 0 || id >= num_layers || s.samples == 0) continue;
    quant::LayerRange& r = ranges[static_cast<std::size_t>(id)];
    r.seen = true;
    r.min_v = s.cal_lo;
    r.max_v = s.cal_hi;
    const double budget = static_cast<double>(cfg_.saturation_budget);
    const float span = s.cal_hi - s.cal_lo;
    // Saturating edge (rail mass grew past the baseline): everything past
    // it clamped, so the true extent is unobservable — extrapolate
    // proportionally to the excess mass.
    const double lo_excess = std::max(0.0, s.sat_lo_ema - s.sat_lo_base);
    const double hi_excess = std::max(0.0, s.sat_hi_ema - s.sat_hi_base);
    if (lo_excess > budget) {
      r.min_v -= span * static_cast<float>(
                            std::min(1.0, 10.0 * (lo_excess - budget)) * 0.5);
    }
    if (hi_excess > budget) {
      r.max_v += span * static_cast<float>(
                            std::min(1.0, 10.0 * (hi_excess - budget)) * 0.5);
    }
    // Collapsed utilization with no saturation: tighten onto the EMA
    // extrema so the codebook covers live values again.
    const double used = range_utilization(id);
    if (used < 0.5 && r.min_v == s.cal_lo && r.max_v == s.cal_hi) {
      r.min_v = s.ema_min;
      r.max_v = s.ema_max;
    }
  }
  return ranges;
}

void ActivationStatsTracker::reset() {
  layers_.clear();
  observations_ = 0;
}

}  // namespace qmcu::nn::streaming
