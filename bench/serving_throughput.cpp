// serving_throughput — open-loop serving benchmark for the serving
// front-end (nn/serving/serving_frontend.h): one thread per lane, each
// lane pinned to one CPU.
//
// Measures, on one host, with a patch-based quant model at a small MCU
// scale:
//
//   1. Calibration: sequential single-run latency (the machine-speed
//      anchor bench_guard.py scales cross-host comparisons with).
//   2. Closed-loop saturation throughput for {1, 2, 4} sessions — enough
//      submitters to keep every lane busy, no think time.
//   3. Open-loop Poisson arrivals (deterministic SplitMix64 stream) at
//      offered loads {0.5, 0.9, 1.5} x the measured capacity of that
//      session count: sustained req/s, p50/p99 queue-to-completion
//      latency, and the shed rate (rejected + expired over offered). The
//      1.5x row exercises the bounded queue and per-request deadlines on
//      purpose: sheds there are the admission control working, not noise.
//
// Also spot-checks bit-exactness: every serving configuration must return
// results identical to the lone sequential model (the PR-3/4 contract);
// a mismatch aborts the bench.
//
// Writes BENCH_serving.json (JsonReport format). Entry names are
// host-independent so bench_guard.py can diff runs across machines.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "nn/rng.h"
#include "nn/runtime/cpu_affinity.h"
#include "nn/serving/serving_frontend.h"
#include "patch/compiled_patch_model.h"
#include "quant/calibration.h"

namespace qmcu {
namespace {

using Clock = std::chrono::steady_clock;
using Frontend = nn::serving::ServingFrontend<patch::CompiledPatchQuantModel>;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One compiled-model recipe shared by every frontend in the sweep: the
// graph, quant config and prepacked weights are built once, each session
// only pays its own compile.
struct ModelRecipe {
  nn::Graph graph;
  nn::ActivationQuantConfig cfg;
  std::shared_ptr<const nn::QuantizedParameters> params;
  patch::PatchPlan plan;

  static ModelRecipe build() {
    models::ModelConfig mc;
    mc.width_multiplier = 0.35f;
    mc.resolution = 64;
    mc.num_classes = 10;
    nn::Graph g = models::make_model("mobilenetv2", mc);
    nn::Tensor calib(g.shape(0));
    nn::Rng rng(1);
    for (float& v : calib.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
    const auto ranges =
        quant::calibrate_ranges(g, std::vector<nn::Tensor>{calib});
    auto qcfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
    auto params = nn::QuantizedParameters::build_shared(g, qcfg);
    auto plan = patch::build_patch_plan(g, patch::plan_mcunetv2(g, {2, 2}));
    return ModelRecipe{std::move(g), std::move(qcfg), std::move(params),
                       std::move(plan)};
  }

  [[nodiscard]] std::unique_ptr<patch::CompiledPatchQuantModel> make(
      const std::shared_ptr<nn::ArenaSlab>& slab) const {
    auto model = std::make_unique<patch::CompiledPatchQuantModel>(
        graph, plan, cfg, std::vector<patch::BranchQuantConfig>{},
        nn::ops::KernelTier::Simd, params);
    model->set_arena_source(slab);
    return model;
  }

  [[nodiscard]] nn::Tensor input(std::uint64_t seed) const {
    nn::Tensor t(graph.shape(0));
    nn::Rng rng(seed);
    for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
    return t;
  }
};

Frontend make_frontend(const ModelRecipe& recipe, nn::serving::ServingConfig
                           cfg) {
  return Frontend(cfg,
                  [&recipe](int, const std::shared_ptr<nn::ArenaSlab>& slab) {
                    return recipe.make(slab);
                  });
}

// Any serving configuration must reproduce the sequential model bit for
// bit; a mismatch is a correctness bug, not a perf result.
void check_bit_exact(Frontend& frontend, const ModelRecipe& recipe,
                     const nn::QTensor& expected, const nn::Tensor& input) {
  const nn::QTensor got = frontend.run(input);
  if (!(got.shape() == expected.shape()) ||
      !std::equal(got.data().begin(), got.data().end(),
                  expected.data().begin())) {
    std::fprintf(stderr,
                 "FATAL: serving result differs from sequential run "
                 "(sessions=%d)\n",
                 frontend.num_sessions());
    std::exit(1);
  }
  (void)recipe;
}

// Closed loop: 2 submitters per lane, no think time — measures the
// saturation throughput of one configuration.
double closed_loop_req_per_s(Frontend& frontend, const ModelRecipe& recipe,
                             int requests_per_submitter) {
  const int submitters = 2 * frontend.num_sessions();
  const nn::Tensor input = recipe.input(3);
  // Warmup: every lane compiles nothing but touches its arenas/caches.
  for (int i = 0; i < 2 * frontend.num_sessions(); ++i) {
    (void)frontend.run(input);
  }
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(submitters));
  for (int t = 0; t < submitters; ++t) {
    threads.emplace_back([&frontend, &input, requests_per_submitter] {
      for (int i = 0; i < requests_per_submitter; ++i) {
        (void)frontend.run(input);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double secs = seconds_since(t0);
  return static_cast<double>(submitters) *
         static_cast<double>(requests_per_submitter) / secs;
}

struct OpenLoopRow {
  double req_per_s = 0;   // completed throughput
  double p50_ms = 0;      // queue-to-completion latency
  double p99_ms = 0;
  double shed_rate = 0;   // (rejected + expired) / offered
};

// Open loop: Poisson arrivals at `offered_rate` req/s from a deterministic
// stream, every request under `deadline`; arrivals never wait for
// completions (the queue, not the submitter, absorbs overload).
OpenLoopRow open_loop(Frontend& frontend, const ModelRecipe& recipe,
                      double offered_rate, int arrivals,
                      std::chrono::microseconds deadline) {
  const nn::Tensor input = recipe.input(4);
  for (int i = 0; i < 2 * frontend.num_sessions(); ++i) {
    (void)frontend.run(input);
  }
  frontend.enable_latency_recording();
  (void)frontend.take_latencies_ms();
  const auto base = frontend.stats();

  nn::Rng rng(42);
  std::vector<std::future<nn::QTensor>> futures;
  futures.reserve(static_cast<std::size_t>(arrivals));
  const Clock::time_point t0 = Clock::now();
  double arrival_s = 0.0;
  for (int i = 0; i < arrivals; ++i) {
    // Exponential inter-arrival times: -ln(U)/rate, U in (0,1].
    double u = 1.0 - rng.uniform();
    arrival_s += -std::log(u) / offered_rate;
    const auto at = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(arrival_s));
    std::this_thread::sleep_until(at);
    futures.push_back(
        frontend.submit(input, Frontend::Clock::now() +
                                   std::chrono::duration_cast<
                                       Frontend::Clock::duration>(deadline)));
  }
  for (auto& f : futures) {
    try {
      (void)f.get();
    } catch (const std::exception&) {
      // Rejected or expired: accounted below via stats.
    }
  }
  const double secs = seconds_since(t0);

  const auto stats = frontend.stats();
  OpenLoopRow row;
  const double completed =
      static_cast<double>(stats.completed - base.completed);
  const double shed = static_cast<double>((stats.rejected - base.rejected) +
                                          (stats.expired - base.expired));
  row.req_per_s = completed / secs;
  row.shed_rate = shed / static_cast<double>(arrivals);
  std::vector<double> lat = frontend.take_latencies_ms();
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    row.p50_ms = lat[lat.size() / 2];
    row.p99_ms = lat[std::min(lat.size() - 1, lat.size() * 99 / 100)];
  }
  return row;
}

int run() {
  const int cores = nn::runtime::usable_cpus();
  bench::print_title("serving_throughput",
                     "serving front-end, open-loop harness");
  std::printf("host: %d usable core(s), affinity %s\n", cores,
              nn::runtime::affinity_supported() ? "supported" : "unsupported");

  bench::JsonReport report("serving");
  report.add("serving/host_cores", cores, "cores");

  const ModelRecipe recipe = ModelRecipe::build();

  // --- calibration: sequential single-run latency --------------------------
  const auto slab = std::make_shared<nn::ArenaSlab>();
  const auto reference = recipe.make(slab);
  const nn::Tensor ref_input = recipe.input(2);
  const nn::QTensor expected = reference->run(ref_input);
  (void)reference->run(ref_input);  // warm
  constexpr int kCalibRuns = 20;
  const Clock::time_point c0 = Clock::now();
  for (int i = 0; i < kCalibRuns; ++i) (void)reference->run(ref_input);
  const double single_ms = seconds_since(c0) * 1e3 / kCalibRuns;
  report.add("serving/calibration/RefSingleRun", single_ms, "ms");
  std::printf("\nsequential single run: %.3f ms (%.1f req/s ceiling/core)\n",
              single_ms, 1e3 / single_ms);

  // --- closed-loop saturation sweep ----------------------------------------
  std::printf("\nclosed-loop saturation (2 submitters/lane, no think time)\n");
  std::printf("  %-10s %12s\n", "sessions", "req/s");
  double capacity_s1 = 0.0;
  for (const int sessions : {1, 2, 4}) {
    nn::serving::ServingConfig cfg;
    cfg.sessions = sessions;
    cfg.max_queue_depth = 0;  // closed loop self-limits, no shedding
    Frontend frontend = make_frontend(recipe, cfg);
    check_bit_exact(frontend, recipe, expected, ref_input);
    const double rps = closed_loop_req_per_s(frontend, recipe, 24);
    if (sessions == 1) capacity_s1 = rps;
    char name[64];
    std::snprintf(name, sizeof(name), "serving/closed/s%d/req_per_s",
                  sessions);
    report.add(name, rps, "req/s");
    std::printf("  %-10d %12.1f\n", sessions, rps);
  }

  // --- open-loop Poisson sweep ---------------------------------------------
  // Offered rates are relative to this host's measured single-session
  // capacity, so the sweep exercises the same queueing regimes (half
  // loaded / near saturation / overloaded) on any machine, and the entry
  // names stay host-independent for bench_guard.
  std::printf("\nopen-loop Poisson arrivals (deadline 80x single-run)\n");
  std::printf("  %-10s %-8s %12s %10s %10s %10s\n", "sessions", "load",
              "req/s", "p50 ms", "p99 ms", "shed");
  const auto deadline = std::chrono::microseconds(
      static_cast<std::int64_t>(80.0 * single_ms * 1e3));
  for (const int sessions : {1, 2, 4}) {
    for (const double load : {0.5, 0.9, 1.5}) {
      nn::serving::ServingConfig cfg;
      cfg.sessions = sessions;
      // Bounded queue: 4 entries per lane. The 1.5x row overflows it by
      // design — that is the load-shedding path under test.
      cfg.max_queue_depth = static_cast<std::size_t>(4 * sessions);
      Frontend frontend = make_frontend(recipe, cfg);
      check_bit_exact(frontend, recipe, expected, ref_input);
      const double offered = load * capacity_s1 * sessions;
      const OpenLoopRow row =
          open_loop(frontend, recipe, offered, 240, deadline);
      char name[96];
      const int load_pct = static_cast<int>(load * 100 + 0.5);
      std::snprintf(name, sizeof(name),
                    "serving/open/s%d/load%03d/req_per_s", sessions,
                    load_pct);
      report.add(name, row.req_per_s, "req/s");
      std::snprintf(name, sizeof(name), "serving/open/s%d/load%03d/p50_ms",
                    sessions, load_pct);
      report.add(name, row.p50_ms, "ms");
      std::snprintf(name, sizeof(name), "serving/open/s%d/load%03d/p99_ms",
                    sessions, load_pct);
      report.add(name, row.p99_ms, "ms");
      std::snprintf(name, sizeof(name),
                    "serving/open/s%d/load%03d/shed_rate", sessions,
                    load_pct);
      report.add(name, row.shed_rate, "frac");
      std::printf("  %-10d %-8.1f %12.1f %10.2f %10.2f %9.1f%%\n", sessions,
                  load, row.req_per_s, row.p50_ms, row.p99_ms,
                  row.shed_rate * 100.0);
    }
  }

  report.write();
  return 0;
}

}  // namespace
}  // namespace qmcu

int main() { return qmcu::run(); }
