// concurrent_serving.cpp — intra-request parallelism end to end.
//
// One patch-based inference scheduled as a dependency-driven task graph
// over a WorkerPool — branch tasks merge into the assembled map, tail row
// bands start on spare workers as soon as their input rows are ready.
// Bit-identical to the sequential run at every worker count. For
// inter-request parallelism (lanes, admission control, batch spreading)
// see example_serving_frontend.
//
// Build: cmake --build build --target example_concurrent_serving
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "models/zoo.h"
#include "nn/compiled_model.h"
#include "nn/rng.h"
#include "nn/runtime/worker_pool.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "quant/calibration.h"

using namespace qmcu;

namespace {

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.35f;
  cfg.resolution = 96;
  cfg.num_classes = 100;
  const nn::Graph g = models::make_mobilenet_v2(cfg);
  const nn::Tensor input = random_input(g.shape(0), 7);
  const auto ranges =
      quant::calibrate_ranges(g, std::vector<nn::Tensor>{input});
  const auto qcfg =
      quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const auto params = nn::QuantizedParameters::build_shared(g, qcfg);

  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {3, 4}));
  const patch::CompiledPatchQuantModel model(
      g, plan, qcfg, {}, nn::ops::KernelTier::Simd, params);
  std::printf("parallel patch stage: %d branches, cut layer %d\n",
              static_cast<int>(plan.branches.size()),
              plan.spec.split_layer);

  std::printf("  pipelined tail: %d row-banded layers before the join\n",
              static_cast<int>(model.pipelined_tail().size()));

  const nn::QTensor sequential = model.run(input);
  for (const int workers : {1, 2, 4}) {
    nn::WorkerPool pool(workers);
    (void)model.run(input, &pool);  // warm worker contexts
    constexpr int kReps = 5;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kReps; ++r) {
      const nn::QTensor out = model.run(input, &pool);
      if (!std::equal(out.data().begin(), out.data().end(),
                      sequential.data().begin())) {
        std::printf("  !! worker count %d diverged from sequential\n",
                    workers);
        return 1;
      }
    }
    const double pipelined_ms = ms_since(t0) / kReps;
    if (workers == 1) {
      // A 1-worker pool takes the sequential path: unified single arena.
      std::printf(
          "  %d worker(s): %6.2f ms/run  bit-exact  arena %lld B (unified, "
          "sequential path)\n",
          workers, pipelined_ms,
          static_cast<long long>(model.arena_bytes()));
    } else {
      const auto& pplan = model.pipelined_plan(workers);
      std::printf(
          "  %d worker(s): %6.2f ms/run pipelined  bit-exact  arena %lld B "
          "(%d x %lld slice + %lld shared)\n",
          workers, pipelined_ms,
          static_cast<long long>(pplan.total_bytes()), workers,
          static_cast<long long>(pplan.slice_stride),
          static_cast<long long>(pplan.shared.peak_bytes));
    }
  }
  return 0;
}
