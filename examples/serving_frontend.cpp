// serving_frontend.cpp — the fleet-scale serving front-end end to end.
//
// Builds a ServingFrontend over a patch-based quant model and drives it
// with open-loop Poisson traffic:
//
//   1. Lanes: one serving thread per lane, each pinned to one CPU of the
//      process's allowed set (best-effort).
//   2. Admission control: bounded queue + per-request deadlines — overload
//      sheds requests with distinct errors instead of growing latency
//      without bound.
//   3. Batch spreading: one large submit_batch split across idle lanes.
//
// Usage: example_serving_frontend [arrival_rate_req_s] [num_requests]
//   arrival_rate_req_s  offered Poisson rate (default: ~0.9x of one
//                       core's measured capacity — near saturation)
//   num_requests        open-loop arrivals to generate (default 200)
//
// Build: cmake --build build --target example_serving_frontend
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "models/zoo.h"
#include "nn/rng.h"
#include "nn/runtime/cpu_affinity.h"
#include "nn/serving/serving_frontend.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "quant/calibration.h"

using namespace qmcu;

namespace {

using Clock = std::chrono::steady_clock;
using Frontend = nn::serving::ServingFrontend<patch::CompiledPatchQuantModel>;

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const double arg_rate = argc > 1 ? std::atof(argv[1]) : 0.0;
  const int arrivals = argc > 2 ? std::atoi(argv[2]) : 200;

  // A small MCU-scale model: compile once, serve many.
  models::ModelConfig mc;
  mc.width_multiplier = 0.35f;
  mc.resolution = 64;
  mc.num_classes = 10;
  const nn::Graph g = models::make_mobilenet_v2(mc);
  const nn::Tensor calib = random_input(g.shape(0), 1);
  const auto ranges =
      quant::calibrate_ranges(g, std::vector<nn::Tensor>{calib});
  const auto qcfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const auto params = nn::QuantizedParameters::build_shared(g, qcfg);
  const patch::PatchPlan plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));

  // --- 1. the lanes ----------------------------------------------------------
  nn::serving::ServingConfig cfg;
  cfg.sessions = std::min(4, std::max(2, nn::runtime::usable_cpus()));
  cfg.max_queue_depth = static_cast<std::size_t>(8 * cfg.sessions);
  Frontend frontend(cfg,
                    [&](int, const std::shared_ptr<nn::ArenaSlab>& slab) {
                      auto model =
                          std::make_unique<patch::CompiledPatchQuantModel>(
                              g, plan, qcfg,
                              std::vector<patch::BranchQuantConfig>{},
                              nn::ops::KernelTier::Simd, params);
                      model->set_arena_source(slab);
                      return model;
                    });
  const int lanes = frontend.num_sessions();
  std::printf("%d lanes over %d usable CPU(s), affinity %s\n", lanes,
              nn::runtime::usable_cpus(),
              nn::runtime::affinity_supported() ? "supported" : "unsupported");
  for (int lane = 0; lane < lanes; ++lane) {
    std::printf("  lane %d -> cpu %d\n", lane, frontend.lane_cpu(lane));
  }

  // Measure one core's sequential capacity to pick a sensible default rate.
  const nn::Tensor input = random_input(g.shape(0), 2);
  (void)frontend.run(input);  // warm
  const Clock::time_point w0 = Clock::now();
  constexpr int kWarm = 10;
  for (int i = 0; i < kWarm; ++i) (void)frontend.run(input);
  const double single_ms = ms_since(w0) / kWarm;
  const double rate =
      arg_rate > 0.0 ? arg_rate : 0.9 * 1e3 / single_ms * lanes;
  std::printf("single run %.2f ms; offered rate %.0f req/s (%s)\n", single_ms,
              rate, arg_rate > 0.0 ? "from argv" : "0.9x capacity default");

  // --- 2. open-loop Poisson traffic with deadlines --------------------------
  const auto deadline_budget = std::chrono::microseconds(
      static_cast<std::int64_t>(50.0 * single_ms * 1e3));
  frontend.enable_latency_recording();
  nn::Rng rng(42);
  std::vector<std::future<nn::QTensor>> futures;
  futures.reserve(static_cast<std::size_t>(arrivals));
  const Clock::time_point t0 = Clock::now();
  double arrival_s = 0.0;
  for (int i = 0; i < arrivals; ++i) {
    arrival_s += -std::log(1.0 - rng.uniform()) / rate;
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(arrival_s)));
    futures.push_back(frontend.submit(
        input, Frontend::Clock::now() +
                   std::chrono::duration_cast<Frontend::Clock::duration>(
                       deadline_budget)));
  }
  int ok = 0;
  int shed = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++ok;
    } catch (const nn::serving::RejectedError&) {
      ++shed;
    } catch (const nn::serving::DeadlineExceededError&) {
      ++shed;
    }
  }
  const double open_ms = ms_since(t0);
  auto lat = frontend.take_latencies_ms();
  std::sort(lat.begin(), lat.end());
  const double p50 = lat.empty() ? 0.0 : lat[lat.size() / 2];
  const double p99 =
      lat.empty() ? 0.0
                  : lat[std::min(lat.size() - 1, lat.size() * 99 / 100)];
  const auto stats = frontend.stats();
  std::printf(
      "open loop: %d arrivals in %.0f ms -> %.1f req/s sustained, "
      "p50 %.2f ms, p99 %.2f ms\n",
      arrivals, open_ms, 1e3 * ok / open_ms, p50, p99);
  std::printf(
      "  completed %llu, rejected %llu (queue full), expired %llu "
      "(deadline), pinned lanes %d/%d\n",
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.expired), stats.pinned_lanes,
      lanes);
  (void)shed;

  // --- 3. batch spreading ---------------------------------------------------
  constexpr int kBatch = 16;
  std::vector<nn::Tensor> batch;
  batch.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    batch.push_back(random_input(g.shape(0), 500 + i));
  }
  const auto before = frontend.per_session_requests();
  const Clock::time_point tb = Clock::now();
  auto batch_futures = frontend.submit_batch(std::move(batch));
  for (auto& f : batch_futures) (void)f.get();
  const double batch_ms = ms_since(tb);
  const auto after = frontend.per_session_requests();
  int lanes_hit = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    lanes_hit += after[i] > before[i] ? 1 : 0;
  }
  std::printf(
      "batch of %d: spread across %d/%d lanes, %.1f ms end to end\n", kBatch,
      lanes_hit, frontend.num_sessions(), batch_ms);
  return 0;
}
