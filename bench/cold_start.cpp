// cold_start — time-to-ready and fleet RSS for QMCP plan artifacts
// (nn/plan_artifact.h).
//
// Measures, on the mbv2 zoo model at MCU scale:
//
//   1. Calibration: one sequential inference (the machine-speed anchor
//      bench_guard.py scales cross-host comparisons with).
//   2. Compile-from-graph cold start, disk to ready: what a serving
//      process without an artifact actually does at startup — load the
//      saved graph (.qmcu) and quant config (.qmcq) from disk, then
//      construct a CompiledQuantModel (weight quantization, bias
//      rescale, k-major panel packing, offset rows, arena placement).
//   3. Artifact cold start, disk to ready: load_compiled — the mmap,
//      per-section CRC sweep, topology parse, and span rebinding; no
//      weight copy or packing (panels are adopted from the mapping).
//   4. The speedup ratio (2)/(3), emitted as a guarded "x" entry: it must
//      not drop below the committed baseline, and --require-speedup X
//      turns it into a hard gate (the acceptance criterion: >= 10x).
//   5. Time-to-first-inference for both paths (setup + one run), and the
//      one-time artifact bake cost, as informational entries.
//   5b. The mixed-precision patch artifact `qmcu_pack --kind mixed` bakes
//      for the same net (MinPeak plan + VDQS branch configs, calibration
//      seeds 100 and 101): the median bake and load_compiled_patch times,
//      informational, with the loaded model bit-checked against an
//      in-memory CompiledPatchQuantModel.
//   6. Fleet RSS sharing: fork a child that maps the SAME artifact and
//      serves from it; the child's private footprint (smaps_rollup
//      Private_Clean+Private_Dirty around model construction) must be a
//      small fraction of the artifact size, because its weights, panels
//      and tables are MAP_SHARED views of pages the parent already
//      faulted in. Skipped (informational zeros) where /proc is absent.
//
// Every timed path is also bit-exactness-checked against the in-memory
// model — a mismatch aborts the bench.
//
// Writes BENCH_cold_start.json (JsonReport format).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/quantmcu.h"
#include "mcu/device.h"
#include "nn/compiled_model.h"
#include "nn/plan_artifact.h"
#include "nn/rng.h"
#include "nn/serialize.h"
#include "patch/patch_artifact.h"
#include "quant/calibration.h"

namespace qmcu {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

bool q_equal(const nn::QTensor& a, const nn::QTensor& b) {
  if (a.shape() != b.shape() || !(a.params() == b.params())) return false;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

// Private_Clean + Private_Dirty of this process, in KiB (-1: no /proc).
long private_kib() {
  std::ifstream is("/proc/self/smaps_rollup");
  if (!is) return -1;
  std::string line;
  long total = 0;
  bool found = false;
  while (std::getline(is, line)) {
    long v = 0;
    if (std::sscanf(line.c_str(), "Private_Clean: %ld kB", &v) == 1 ||
        std::sscanf(line.c_str(), "Private_Dirty: %ld kB", &v) == 1) {
      total += v;
      found = true;
    }
  }
  return found ? total : -1;
}

// Median of `reps` timed runs of `body` (ms). The first call is NOT
// discarded — cold start is the quantity under test — but the page cache
// is warm for every rep (the writer just produced the file), which is the
// serving-fleet steady state: artifact written once, mapped N times.
template <class Body>
double median_ms(int reps, const Body& body) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    times.push_back(ms_since(t0));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

int run(int argc, char** argv) {
  double require_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require-speedup") == 0 && i + 1 < argc) {
      require_speedup = std::atof(argv[++i]);
    }
  }

  bench::JsonReport report("cold_start");

  models::ModelConfig mc;
  mc.width_multiplier = 0.25f;
  mc.resolution = 48;
  mc.num_classes = 10;
  const nn::Graph g = models::make_mobilenet_v2(mc);
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 1),
                                      random_input(g.shape(0), 2)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const nn::Tensor in = random_input(g.shape(0), 3);
  const std::string path = "cold_start_mbv2.qmcp";
  const std::string graph_path = "cold_start_mbv2.qmcu";
  const std::string cfg_path = "cold_start_mbv2.qmcq";

  // Both cold-start paths begin from files on disk: the baseline process
  // ships the graph + quant config, the artifact process ships the .qmcp.
  nn::save_graph(g, graph_path);
  nn::save_quant_config(cfg, cfg_path);

  // One-time bake cost (writer side; amortized over every later load).
  const auto bake0 = Clock::now();
  nn::compile_to_artifact(g, cfg, path);
  const double bake_ms = ms_since(bake0);

  // Machine-speed anchor + the golden output every timed path must match.
  const nn::CompiledQuantModel ref(g, cfg);
  (void)ref.run(in);  // panel caches warm before the anchor sample
  const auto anchor0 = Clock::now();
  const nn::QTensor want = ref.run(in);
  report.add("cold_start/calibration/RefSingleRun", ms_since(anchor0), "ms");

  constexpr int kReps = 15;

  // Compile-from-graph: the disk-to-ready work load_compiled removes.
  const double compile_ms = median_ms(kReps, [&] {
    const nn::Graph g2 = nn::load_graph(graph_path);
    const auto cfg2 = nn::load_quant_config(cfg_path);
    const nn::CompiledQuantModel model(g2, cfg2);
    if (!q_equal(model.run(in), want)) {
      std::fprintf(stderr, "FATAL: compiled model output mismatch\n");
      std::exit(1);
    }
  });
  // Subtract the shared inference to isolate setup; keep TTFI too.
  const double compile_setup_ms = median_ms(kReps, [&] {
    const nn::Graph g2 = nn::load_graph(graph_path);
    const auto cfg2 = nn::load_quant_config(cfg_path);
    nn::CompiledQuantModel model(g2, cfg2);
  });

  const double load_ms = median_ms(kReps, [&] {
    const nn::LoadedModel loaded = nn::load_compiled(path);
    if (!q_equal(loaded.model->run(in), want)) {
      std::fprintf(stderr, "FATAL: artifact model output mismatch\n");
      std::exit(1);
    }
  });
  const double load_setup_ms =
      median_ms(kReps, [&] { (void)nn::load_compiled(path); });

  const double speedup =
      load_setup_ms > 0.0 ? compile_setup_ms / load_setup_ms : 0.0;
  std::printf("cold start (mbv2 w%.2f r%d, int8):\n", mc.width_multiplier,
              mc.resolution);
  std::printf("  bake once:            %8.3f ms\n", bake_ms);
  std::printf("  compile from disk:    %8.3f ms  (TTFI %8.3f ms)\n",
              compile_setup_ms, compile_ms);
  std::printf("  load_compiled (mmap): %8.3f ms  (TTFI %8.3f ms)\n",
              load_setup_ms, load_ms);
  std::printf("  model-ready speedup:  %8.2fx\n", speedup);
  report.add("cold_start/bake_ms", bake_ms, "info_ms");
  report.add("cold_start/compile_ms", compile_setup_ms, "info_ms");
  report.add("cold_start/load_ms", load_setup_ms, "info_ms");
  report.add("cold_start/compile_ttfi_ms", compile_ms, "info_ms");
  report.add("cold_start/load_ttfi_ms", load_ms, "info_ms");
  report.add("cold_start/speedup_x", speedup, "x");

  // --- mixed-precision patch artifact --------------------------------------
  {
    const std::vector<nn::Tensor> mixed_calib{random_input(g.shape(0), 100),
                                              random_input(g.shape(0), 101)};
    core::QuantMcuConfig qcfg;
    qcfg.planner = core::PatchPlannerKind::MinPeak;
    const core::QuantMcuPlan plan = core::build_quantmcu_plan(
        g, mcu::arduino_nano_33_ble_sense(), mixed_calib, qcfg);
    const auto mixed_ranges = quant::calibrate_ranges(g, mixed_calib);
    const auto deploy_cfg =
        core::make_deployment_quant_config(g, plan, mixed_ranges);
    const auto branch_cfgs =
        core::make_branch_quant_configs(g, plan, mixed_ranges);
    const std::string mixed_path = "cold_start_mbv2_mixed.qmcp";
    const double mixed_bake_ms = median_ms(kReps, [&] {
      patch::compile_to_artifact(g, plan.patch_plan.spec, deploy_cfg,
                                 branch_cfgs, mixed_path);
    });
    const nn::QTensor mixed_want =
        patch::CompiledPatchQuantModel(g, plan.patch_plan, deploy_cfg,
                                       branch_cfgs)
            .run(in);
    const double mixed_load_ms = median_ms(kReps, [&] {
      (void)patch::load_compiled_patch(mixed_path);
    });
    if (!q_equal(patch::load_compiled_patch(mixed_path).model->run(in),
                 mixed_want)) {
      std::fprintf(stderr, "FATAL: mixed patch artifact output mismatch\n");
      return 1;
    }
    std::printf("  mixed patch artifact: bake %8.3f ms, load %8.3f ms\n",
                mixed_bake_ms, mixed_load_ms);
    report.add("cold_start/mixed_bake_ms", mixed_bake_ms, "info_ms");
    report.add("cold_start/mixed_load_ms", mixed_load_ms, "info_ms");
    std::remove(mixed_path.c_str());
  }

  // --- fleet RSS sharing ---------------------------------------------------
  // Parent maps the artifact and faults every weight page in (one run).
  // The forked child re-maps the same file and serves from it; everything
  // but its arena and activation buffers must be shared pages.
  const auto parent_art = nn::PlanArtifact::map(path);
  {
    const auto parent_model = parent_art->make_quant_model();
    (void)parent_model->run(in);
  }
  const double artifact_kib =
      static_cast<double>(parent_art->mapped_bytes()) / 1024.0;
  double child_private_kib = -1.0;
  int pipefd[2];
  if (private_kib() >= 0 && ::pipe(pipefd) == 0) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(pipefd[0]);
      const long before = private_kib();
      const auto art = nn::PlanArtifact::map(path);
      const auto model = art->make_quant_model();
      const bool ok = q_equal(model->run(in), want);
      const long delta = ok ? std::max(0L, private_kib() - before) : -1L;
      (void)!::write(pipefd[1], &delta, sizeof(delta));
      ::close(pipefd[1]);
      ::_exit(ok ? 0 : 1);
    }
    ::close(pipefd[1]);
    long delta = -1;
    if (pid > 0 && ::read(pipefd[0], &delta, sizeof(delta)) == sizeof(delta)) {
      child_private_kib = static_cast<double>(delta);
    }
    ::close(pipefd[0]);
    int status = 0;
    if (pid > 0) ::waitpid(pid, &status, 0);
    if (pid > 0 && (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
      std::fprintf(stderr, "FATAL: forked child mismatch on shared mapping\n");
      return 1;
    }
  }
  if (child_private_kib >= 0.0) {
    std::printf("  fleet sharing: artifact %.0f KiB, forked serving child "
                "adds %.0f KiB private\n",
                artifact_kib, child_private_kib);
    report.add("cold_start/fork/artifact_kib", artifact_kib, "KiB");
    report.add("cold_start/fork/child_private_kib", child_private_kib, "KiB");
  } else {
    std::printf("  fleet sharing: /proc/self/smaps_rollup unavailable, "
                "skipped\n");
  }

  report.write();
  std::remove(path.c_str());
  std::remove(graph_path.c_str());
  std::remove(cfg_path.c_str());

  if (require_speedup > 0.0) {
    if (speedup < require_speedup) {
      std::fprintf(stderr,
                   "FAIL: cold-start speedup %.2fx below required %.2fx\n",
                   speedup, require_speedup);
      return 1;
    }
    std::printf("PASS: cold-start speedup %.2fx >= required %.2fx\n", speedup,
                require_speedup);
  }
  return 0;
}

}  // namespace
}  // namespace qmcu

int main(int argc, char** argv) { return qmcu::run(argc, argv); }
