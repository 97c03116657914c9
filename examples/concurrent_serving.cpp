// concurrent_serving.cpp — the parallel runtime end to end.
//
// Demonstrates the axes the runtime stacks on top of compiled plans:
//
//   1. Intra-request parallelism: one patch-based inference scheduled as a
//      dependency-driven task graph over a WorkerPool — branch tasks merge
//      into the assembled map, tail row bands start on spare workers as
//      soon as their input rows are ready. Bit-identical to the
//      sequential run at every worker count.
//   2. Inter-request parallelism: a SessionPool of pre-compiled
//      (model, arena, scratch) triples serving submit()-style traffic from
//      several client threads, sharing one weight conversion — plus
//      batched submission (one queue wakeup per batch).
//
// Build: cmake --build build --target example_concurrent_serving
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "models/zoo.h"
#include "nn/executor.h"
#include "nn/rng.h"
#include "nn/runtime/session_pool.h"
#include "nn/runtime/worker_pool.h"
#include "patch/mcunetv2.h"
#include "patch/patch_quant_executor.h"
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

  // --- 1. parallel patch execution ----------------------------------------
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {3, 4}));
  const patch::PatchQuantExecutor pexec(g, plan, qcfg,
                                        nn::ops::KernelTier::Simd, params);
  std::printf("parallel patch stage: %d branches, cut layer %d\n",
              static_cast<int>(plan.branches.size()),
              plan.spec.split_layer);

  std::printf("  pipelined tail: %d row-banded layers before the join\n",
              static_cast<int>(pexec.compiled().pipelined_tail().size()));

  const nn::QTensor sequential = pexec.run(input);
  for (const int workers : {1, 2, 4}) {
    nn::WorkerPool pool(workers);
    (void)pexec.compiled().run(input, &pool);  // warm worker contexts
    constexpr int kReps = 5;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kReps; ++r) {
      const nn::QTensor out = pexec.compiled().run(input, &pool);
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
          static_cast<long long>(pexec.compiled().arena_bytes()));
    } else {
      const auto& pplan = pexec.compiled().pipelined_plan(workers);
      std::printf(
          "  %d worker(s): %6.2f ms/run pipelined  bit-exact  arena %lld B "
          "(%d x %lld slice + %lld shared)\n",
          workers, pipelined_ms,
          static_cast<long long>(pplan.total_bytes()), workers,
          static_cast<long long>(pplan.slice_stride),
          static_cast<long long>(pplan.shared.peak_bytes));
    }
  }

  // --- 2. concurrent serving ----------------------------------------------
  constexpr int kSessions = 3;
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 6;
  nn::SessionPool<nn::CompiledQuantModel> sessions(kSessions, [&] {
    return std::make_unique<nn::CompiledQuantModel>(
        g, qcfg, nn::ops::KernelTier::Simd, params);
  });
  std::printf("session pool: %d sessions, %d clients x %d requests\n",
              sessions.num_sessions(), kClients, kRequestsPerClient);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        (void)sessions.run(random_input(g.shape(0), 100 + c * 31 + r));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double total_ms = ms_since(t0);
  const int total = kClients * kRequestsPerClient;
  std::printf(
      "  served %llu requests in %.1f ms (%.1f req/s), queue drained: %s\n",
      static_cast<unsigned long long>(sessions.completed()), total_ms,
      1000.0 * total / total_ms, sessions.pending() == 0 ? "yes" : "no");
  const auto per_session = sessions.per_session_requests();
  std::printf("  per-session request counts:");
  for (const auto n : per_session) {
    std::printf(" %llu", static_cast<unsigned long long>(n));
  }
  std::printf("\n");

  // --- 3. batched submission ----------------------------------------------
  constexpr int kBatch = 8;
  std::vector<nn::Tensor> batch;
  batch.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    batch.push_back(random_input(g.shape(0), 500 + i));
  }
  const auto tb = std::chrono::steady_clock::now();
  auto futures = sessions.submit_batch(std::move(batch));
  for (auto& f : futures) (void)f.get();
  std::printf("  batch of %d: one queue wakeup, %.1f ms end to end\n",
              kBatch, ms_since(tb));
  return 0;
}
