// Table I — QuantMCU vs layer-based inference and three state-of-the-art
// patch-based inference methods (MCUNetV2, Cipolletta et al., RNNPool) on
// MobileNetV2, across two MCUs and two datasets.
//
// Reported per cell: peak SRAM (KB), BitOPs (M), inference latency (ms).
// Paper reference values are printed alongside for the headline
// Arduino/ImageNet column. The expected orderings:
//   peak:    QuantMCU < Cipolletta < MCUNetV2 < RNNPool ~ layer
//   BitOPs:  QuantMCU < layer < RNNPool < MCUNetV2 < Cipolletta
//   latency: QuantMCU < layer < RNNPool < MCUNetV2 < Cipolletta
//
// For the headline platform the searched plan is additionally *executed*:
// the deployment configs are materialised, QuantizedParameters are built
// once and shared between the outlier-class (uniform int8) and mixed
// models, and both compiled arena runtimes process an eval image — timed
// rep by rep in alternation, and printing the static arena each would pin
// in SRAM (the mixed one stores its sub-byte branch maps packed) next to
// the analytic QuantMCU peak.
// Results are mirrored to BENCH_table1_main.json (see bench_common.h).
#include "bench_common.h"

#include <chrono>
#include <limits>

#include "models/weights.h"
#include "patch/compiled_patch_model.h"
#include "patch/restructuring.h"
#include "patch/rnnpool.h"
#include "quant/calibration.h"

namespace {

using namespace qmcu;

struct Cell {
  double peak_kb = 0.0;
  double bitops_m = 0.0;
  double latency_ms = 0.0;
};

void print_row(const char* method, const Cell& c) {
  std::printf("  %-18s %10.0f %10.0f %10.0f\n", method, c.peak_kb,
              c.bitops_m, c.latency_ms);
}

void report_row(bench::JsonReport& report, const std::string& platform,
                const char* method, const Cell& c) {
  const std::string base = "table1/" + platform + "/" + method + "/";
  report.add(base + "peak_kb", c.peak_kb, "KB");
  report.add(base + "bitops_m", c.bitops_m, "MBitOPs");
  report.add(base + "latency_ms", c.latency_ms, "ms");
}

// Executes the searched deployment on the host: one shared weight
// conversion, two compiled patch runtimes (outlier-class uniform int8 and
// the mixed-precision assignment) over one static arena each.
// `analytic_peak_kb` is the QuantMCU cell's cost-model peak.
void run_deployment(const nn::Graph& g, const core::QuantMcuPlan& plan,
                    std::span<const nn::Tensor> calib,
                    const nn::Tensor& image, double analytic_peak_kb,
                    const std::string& platform,
                    bench::JsonReport& report) {
  const auto ranges = quant::calibrate_ranges(g, calib);
  const nn::ActivationQuantConfig deploy_cfg =
      core::make_deployment_quant_config(g, plan, ranges);
  const auto branch_cfgs = core::make_branch_quant_configs(g, plan, ranges);

  // One weight conversion feeds both models (and any sweep variants).
  const auto params = nn::QuantizedParameters::build_shared(g, deploy_cfg);
  const patch::CompiledPatchQuantModel uniform(
      g, plan.patch_plan, deploy_cfg, {}, nn::ops::KernelTier::Simd, params);
  const patch::CompiledPatchQuantModel mixed(g, plan.patch_plan, deploy_cfg,
                                             branch_cfgs,
                                             nn::ops::KernelTier::Simd,
                                             params);

  // Best of several warm runs: a single wall-clock sample on a shared
  // runner is too jittery for a trajectory artifact. The two models
  // alternate rep by rep, so a change in host speed during the loop moves
  // both, not the mixed/uniform ratio.
  const auto time_once = [&](const patch::CompiledPatchQuantModel& model) {
    const auto t0 = std::chrono::steady_clock::now();
    const nn::QTensor out = model.run(image);
    const auto t1 = std::chrono::steady_clock::now();
    (void)out;
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };
  (void)uniform.run(image);  // warm the arenas + weight panels
  (void)mixed.run(image);
  double uniform_ms = std::numeric_limits<double>::infinity();
  double mixed_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    uniform_ms = std::min(uniform_ms, time_once(uniform));
    mixed_ms = std::min(mixed_ms, time_once(mixed));
  }

  const double uniform_arena_kb =
      static_cast<double>(uniform.arena_bytes()) / 1024;
  const double mixed_arena_kb =
      static_cast<double>(mixed.arena_bytes()) / 1024;
  std::printf(
      "  (executed: uniform %.1f ms / %.0f KB arena, mixed %.1f ms / %.0f "
      "KB arena, shared weight conversion)\n",
      uniform_ms, uniform_arena_kb, mixed_ms, mixed_arena_kb);
  // Where the executed arena exceeds the cost model: it stages the whole
  // input at int8 for the branch phase (every branch crops it) and keeps
  // the assembled cut-layer map at int8, while the model charges the input
  // tiles and the cut map at their searched (packed) widths.
  const double staged_input_kb =
      static_cast<double>(g.shape(g.inputs().front()).elements()) / 1024;
  std::printf(
      "  (executed mixed arena %.1f KB vs analytic QuantMCU peak %.1f KB: "
      "the arena stages the input at int8, %.1f KB, and the cut map at "
      "int8)\n",
      mixed_arena_kb, analytic_peak_kb, staged_input_kb);
  report.add("table1/" + platform + "/executed/uniform_host_ms", uniform_ms,
             "ms");
  report.add("table1/" + platform + "/executed/mixed_host_ms", mixed_ms,
             "ms");
  report.add("table1/" + platform + "/executed/uniform_arena_kb",
             uniform_arena_kb, "KB");
  report.add("table1/" + platform + "/executed/mixed_arena_kb",
             mixed_arena_kb, "KB");
  report.add("table1/" + platform + "/executed/staged_input_kb",
             staged_input_kb, "KB");
}

void run_platform(const char* platform_name, const std::string& slug,
                  const mcu::Device& dev, data::DatasetKind kind,
                  const models::ModelConfig& scale,
                  bench::JsonReport& report, bool execute_deployment) {
  const mcu::CostModel cm(dev);
  const nn::Graph g = models::make_mobilenet_v2(scale);
  const auto ds = bench::dataset_for(kind, scale.resolution);
  const std::vector<nn::Tensor> calib = ds.batch(0, 2);
  const std::vector<nn::Tensor> eval = ds.batch(8, 2);
  const std::vector<int> bits8 = nn::uniform_bits(g, 8);

  std::printf("\n%s / %s  (MobileNetV2 w%.2f @ %d, %.0f MMACs)\n",
              platform_name, data::dataset_name(kind),
              scale.width_multiplier, scale.resolution,
              static_cast<double>(g.total_macs()) / 1e6);
  std::printf("  %-18s %10s %10s %10s\n", "method", "peak(KB)", "BitOPs(M)",
              "lat(ms)");

  // --- layer-based ---------------------------------------------------------
  {
    Cell c;
    c.peak_kb =
        static_cast<double>(nn::plan_layer_based(g, bits8).peak_bytes) / 1024;
    c.bitops_m = static_cast<double>(g.total_macs()) * 64 / 1e6;
    c.latency_ms = cm.graph_latency_ms(g, bits8);
    print_row("Layer-Based", c);
    report_row(report, slug, "layer_based", c);
    // The honest single-arena figure: feature maps + the kernel backend's
    // im2col/GEMM scratch high-water (satellite of the arena planner).
    const nn::MemoryPlan mp = nn::plan_layer_based(g, bits8);
    report.add("table1/" + slug + "/layer_based/peak_with_scratch_kb",
               static_cast<double>(mp.total_peak_bytes) / 1024, "KB");
  }

  // --- MCUNetV2 ------------------------------------------------------------
  const patch::PatchPlan mcunet_plan =
      patch::build_patch_plan(g, patch::plan_mcunetv2(g, {3, 4}));
  {
    const patch::PatchCost pc = patch::evaluate_patch_cost(
        g, mcunet_plan, patch::uniform_branch_bits(mcunet_plan, 8), bits8, cm);
    const Cell c{static_cast<double>(pc.peak_bytes) / 1024,
                 static_cast<double>(pc.bitops) / 1e6, pc.latency_ms};
    print_row("MCUNetV2", c);
    report_row(report, slug, "mcunetv2", c);
  }

  // --- Cipolletta et al. (restructuring for minimum peak) ------------------
  {
    const patch::RestructuringResult r =
        patch::restructure_for_memory(g, cm);
    const Cell c{static_cast<double>(r.cost.peak_bytes) / 1024,
                 static_cast<double>(r.cost.bitops) / 1e6, r.cost.latency_ms};
    print_row("Cipolletta et al.", c);
    report_row(report, slug, "cipolletta", c);
  }

  // --- RNNPool (stem replaced by aggressive pooling block) -----------------
  {
    patch::RnnPoolResult r = patch::make_rnnpool_variant(g);
    models::init_parameters(r.graph, scale.seed + 1);
    const std::vector<int> vbits8 = nn::uniform_bits(r.graph, 8);
    Cell c;
    c.peak_kb = static_cast<double>(
                    nn::plan_layer_based(r.graph, vbits8).peak_bytes) /
                1024;
    c.bitops_m = static_cast<double>(r.graph.total_macs()) * 64 / 1e6;
    c.latency_ms = cm.graph_latency_ms(r.graph, vbits8);
    print_row("RNNPool", c);
    report_row(report, slug, "rnnpool", c);
  }

  // --- QuantMCU --------------------------------------------------------------
  {
    core::QuantMcuConfig qcfg;
    qcfg.planner = core::PatchPlannerKind::MinPeak;
    const core::QuantMcuPlan plan =
        core::build_quantmcu_plan(g, dev, calib, qcfg);
    const core::QuantMcuEvaluation ev =
        core::evaluate_quantmcu(g, plan, cm, eval, qcfg);
    const Cell c{ev.mean_peak_bytes / 1024, ev.mean_bitops / 1e6,
                 ev.mean_latency_ms};
    print_row("QuantMCU", c);
    report_row(report, slug, "quantmcu", c);
    std::printf("  (outlier-class patches: %.0f%%; VDQS search %.2fs)\n",
                100.0 * ev.outlier_patch_fraction, plan.search_seconds);
    if (execute_deployment) {
      run_deployment(g, plan, calib, eval.front(), c.peak_kb, slug, report);
    }
  }
}

}  // namespace

int main() {
  using namespace qmcu;
  bench::print_title("Table I",
                     "QuantMCU vs patch-based inference methods");
  std::printf(
      "paper, Arduino/ImageNet column: layer 244KB/1536M/617ms, MCUNetV2 "
      "196KB/1690M/741ms,\n  Cipolletta 122KB/1721M/784ms, RNNPool "
      "226KB/1582M/640ms, QuantMCU 78KB/719M/486ms\n");

  bench::JsonReport report("table1_main");
  run_platform("Arduino Nano 33 BLE Sense", "arduino_imagenet",
               mcu::arduino_nano_33_ble_sense(),
               data::DatasetKind::ImageNetLike, bench::nano_imagenet_scale(),
               report, /*execute_deployment=*/true);
  run_platform("Arduino Nano 33 BLE Sense", "arduino_voc",
               mcu::arduino_nano_33_ble_sense(),
               data::DatasetKind::PascalVocLike, bench::nano_voc_scale(),
               report, false);
  run_platform("STM32H743", "h7_imagenet", mcu::stm32h743(),
               data::DatasetKind::ImageNetLike, bench::h7_imagenet_scale(),
               report, false);
  run_platform("STM32H743", "h7_voc", mcu::stm32h743(),
               data::DatasetKind::PascalVocLike, bench::h7_voc_scale(),
               report, false);
  report.write();
  return 0;
}
