// hawq.h — HAWQ-V3-style sensitivity-driven allocation (Yao et al., ICML
// 2021, reference [3]).
//
// HAWQ ranks layers by a second-order (Hessian) sensitivity metric and
// solves an allocation problem for the bitwidths. This reproduction
// measures sensitivity by *perturbation*: fake-quantize one layer's feature
// map at 4 bits, propagate only the affected sub-graph
// (nn::CompiledModel::run_from) and record the output MSE — a direct
// curvature probe equivalent in role to the Hessian spectrum, costing one
// partial forward per layer. The allocation then greedily demotes the least
// sensitivity-per-BitOPs layers until the BitOPs target is met. As the paper
// notes for the original, the metric is computed once up front and never
// revisited as values quantize — the blind spot that costs HAWQ accuracy in
// Table II.
#pragma once

#include <span>

#include "baselines/method.h"

namespace qmcu::baselines {

struct HawqConfig {
  double target_bitops_ratio = 0.7;  // vs the all-8-bit deployment
  int probe_bits = 4;                // perturbation bitwidth
};

MethodResult run_hawq(const nn::Graph& g,
                      std::span<const nn::Tensor> calibration,
                      const HawqConfig& cfg = {});

}  // namespace qmcu::baselines
