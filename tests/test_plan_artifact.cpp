// Plan artifacts (nn/plan_artifact.h, patch/patch_artifact.h): a model
// loaded from an mmap'd QMCP file must be bit-identical to one compiled
// from the graph in-memory — across float, uniform int8, sub-byte, mixed
// per-layer and patch-based mixed-precision modes, in every kernel
// generation the running host can dispatch — and corrupt or truncated
// artifacts must be rejected at map time, before any byte is trusted.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "core/quantmcu.h"
#include "data/synthetic.h"
#include "models/weights.h"
#include "models/zoo.h"
#include "nn/checksum.h"
#include "nn/compiled_model.h"
#include "nn/plan_artifact.h"
#include "nn/rng.h"
#include "nn/runtime/worker_pool.h"
#include "patch/compiled_patch_model.h"
#include "patch/mcunetv2.h"
#include "nn/serving/serving_frontend.h"
#include "patch/patch_artifact.h"
#include "quant/calibration.h"
#include "scoped_env.h"

namespace qmcu {
namespace {

nn::Tensor random_input(nn::TensorShape s, std::uint64_t seed) {
  nn::Tensor t(s);
  nn::Rng rng(seed);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

nn::Graph small_net() {
  nn::Graph g("small");
  const int in = g.add_input(nn::TensorShape{16, 16, 3});
  const int stem =
      g.add_conv2d(in, 8, 3, 2, 1, nn::Activation::ReLU6, "stem");
  const int a = g.add_conv2d(stem, 8, 3, 1, 1, nn::Activation::ReLU, "a");
  const int b = g.add_conv2d(a, 8, 3, 1, 1, nn::Activation::None, "b");
  const int add = g.add_residual_add(stem, b, nn::Activation::ReLU, "res");
  const int dw = g.add_depthwise_conv2d(add, 3, 2, 1, nn::Activation::ReLU6);
  const int gap = g.add_global_avg_pool(dw);
  const int fc = g.add_fully_connected(gap, 10, nn::Activation::None);
  g.add_softmax(fc);
  models::init_parameters(g, 42);
  return g;
}

nn::Graph mbv2_net() {
  models::ModelConfig cfg;
  cfg.width_multiplier = 0.25f;
  cfg.resolution = 48;
  cfg.num_classes = 10;
  return models::make_mobilenet_v2(cfg);
}

void expect_f_identical(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

void expect_q_identical(const nn::QTensor& a, const nn::QTensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(a.params(), b.params());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(static_cast<int>(a.data()[i]), static_cast<int>(b.data()[i]))
        << "element " << i;
  }
}

std::string artifact_path(const char* name) {
  return ::testing::TempDir() + "/" + name + ".qmcp";
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.is_open()) << path;
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Little-endian field access into a raw artifact image.
std::uint64_t get(const std::string& b, std::size_t pos, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
             b[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

void put(std::string& b, std::size_t pos, int width, std::uint64_t v) {
  for (int i = 0; i < width; ++i) {
    b[pos + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Section table: 32-byte entries after the 64-byte header, each
// { tag u32, pad u32, offset u64, size u64, crc u32 }; the section count
// is the header's u32 at byte 28. Returns the entry's byte position, or 0
// when the tag is absent.
std::size_t section_entry(const std::string& bytes, std::uint32_t tag) {
  const std::uint64_t nsections = get(bytes, 28, 4);
  for (std::uint64_t i = 0; i < nsections; ++i) {
    const std::size_t e = 64 + static_cast<std::size_t>(i) * 32;
    if (get(bytes, e, 4) == tag) return e;
  }
  return 0;
}

// --- float kind ------------------------------------------------------------

TEST(PlanArtifact, FloatRoundTripBitExact) {
  const nn::Graph g = small_net();
  const std::string path = artifact_path("float_small");
  nn::compile_to_artifact(g, path);

  const nn::LoadedModel loaded = nn::load_compiled(path);
  ASSERT_EQ(loaded.kind(), nn::ArtifactModelKind::Float);
  ASSERT_NE(loaded.float_model, nullptr);
  EXPECT_EQ(loaded.model, nullptr);

  const nn::CompiledModel ref(g);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const nn::Tensor in = random_input(g.shape(0), seed);
    expect_f_identical(loaded.float_model->run(in), ref.run(in));
  }
}

TEST(PlanArtifact, FloatMbv2RoundTripBitExact) {
  const nn::Graph g = mbv2_net();
  const std::string path = artifact_path("float_mbv2");
  nn::compile_to_artifact(g, path);
  const nn::LoadedModel loaded = nn::load_compiled(path);
  const nn::CompiledModel ref(g);
  const nn::Tensor in = random_input(g.shape(0), 4);
  expect_f_identical(loaded.float_model->run(in), ref.run(in));
}

// --- quant kind ------------------------------------------------------------

TEST(PlanArtifact, QuantRoundTripBitExactAcrossBitwidths) {
  const nn::Graph g = small_net();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 6),
                                      random_input(g.shape(0), 7)};
  const auto ranges = quant::calibrate_ranges(g, calib);
  const nn::Tensor in = random_input(g.shape(0), 8);

  // Uniform 8/4/2-bit plus a mixed per-layer assignment — exercises the
  // plain panel path, both sub-byte widths and the width-per-layer case.
  std::vector<std::vector<int>> assignments{
      nn::uniform_bits(g, 8), nn::uniform_bits(g, 4), nn::uniform_bits(g, 2)};
  std::vector<int> mixed = nn::uniform_bits(g, 8);
  for (std::size_t i = 0; i < mixed.size(); i += 2) mixed[i] = 4;
  assignments.push_back(mixed);

  for (std::size_t a = 0; a < assignments.size(); ++a) {
    const auto cfg = quant::make_quant_config(g, ranges, assignments[a]);
    const std::string path =
        artifact_path(("quant_small_" + std::to_string(a)).c_str());
    nn::compile_to_artifact(g, cfg, path);

    const nn::LoadedModel loaded = nn::load_compiled(path);
    ASSERT_EQ(loaded.kind(), nn::ArtifactModelKind::Quant);
    ASSERT_NE(loaded.model, nullptr);
    EXPECT_TRUE(loaded.artifact->fingerprint_matches());

    const nn::CompiledQuantModel ref(g, cfg);
    expect_q_identical(loaded.model->run(in), ref.run(in));
    // Repeated runs through the mapped storage stay deterministic.
    expect_q_identical(loaded.model->run(in), loaded.model->run(in));
  }
}

TEST(PlanArtifact, QuantMbv2RoundTripBitExact) {
  const nn::Graph g = mbv2_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 9)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const std::string path = artifact_path("quant_mbv2");
  nn::compile_to_artifact(g, cfg, path);

  const nn::LoadedModel loaded = nn::load_compiled(path);
  const nn::CompiledQuantModel ref(g, cfg);
  const nn::Tensor in = random_input(g.shape(0), 10);
  expect_q_identical(loaded.model->run(in), ref.run(in));

  // The arena plan rode along — no placement pass ran at load time.
  EXPECT_EQ(loaded.model->arena_bytes(), ref.arena_bytes());
  EXPECT_EQ(loaded.artifact->arena_plan().slots.size(),
            ref.arena_plan().slots.size());
}

TEST(PlanArtifact, SharedMappingAcrossModels) {
  // Several models over ONE mapping — the fleet configuration. All views
  // alias the same artifact pages and agree bit-exactly.
  const nn::Graph g = small_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 11)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const std::string path = artifact_path("quant_shared");
  nn::compile_to_artifact(g, cfg, path);

  const auto artifact = nn::PlanArtifact::map(path);
  std::vector<std::unique_ptr<nn::CompiledQuantModel>> lanes;
  for (int i = 0; i < 3; ++i) lanes.push_back(artifact->make_quant_model());
  for (const auto& lane : lanes) {
    EXPECT_EQ(lane->shared_parameters().get(), artifact->parameters().get());
  }

  const nn::CompiledQuantModel ref(g, cfg);
  const nn::Tensor in = random_input(g.shape(0), 12);
  const nn::QTensor want = ref.run(in);
  for (const auto& lane : lanes) expect_q_identical(lane->run(in), want);
}

// --- cross-generation load -------------------------------------------------
// An artifact is baked under one kernel generation but must load and run
// bit-exactly under any other: panels and column sums are
// generation-independent, and the loader re-derives offset rows when the
// baked activation zero-point bias differs from the running one.

TEST(PlanArtifact, LoadsBitExactUnderForcedGenerations) {
  const nn::Graph g = small_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 13)});
  const nn::Tensor in = random_input(g.shape(0), 14);

  for (int bits : {8, 4}) {
    const auto cfg =
        quant::make_quant_config(g, ranges, nn::uniform_bits(g, bits));
    const std::string path =
        artifact_path(("crossgen_" + std::to_string(bits)).c_str());
    // Bake under the host's native generation (whatever it dispatches).
    nn::compile_to_artifact(g, cfg, path);
    const nn::KernelFingerprint baked = nn::KernelFingerprint::current();

    // QMCU_FORCE_* are read live by the dispatch tables, so a guard flips
    // the kernel generation in-process; `max_generation` checks it did.
    const auto check_under = [&](const char* env,
                                 std::uint32_t max_generation) {
      const test::ScopedEnv guard(env, "1");
      ASSERT_LE(nn::KernelFingerprint::current().gemm_generation,
                max_generation)
          << env;
      // The reference is built AFTER the flip: both sides now run the
      // forced generation, and outputs must agree with the mapped panels.
      const nn::LoadedModel loaded = nn::load_compiled(path);
      const nn::CompiledQuantModel ref(g, cfg);
      expect_q_identical(loaded.model->run(in), ref.run(in));
      EXPECT_EQ(loaded.artifact->fingerprint() == baked, true);
      EXPECT_EQ(loaded.artifact->fingerprint_matches(),
                nn::KernelFingerprint::current() == baked);
    };
    check_under("QMCU_FORCE_NO_DOT", 1);
    check_under("QMCU_FORCE_SCALAR", 0);
  }
}

TEST(PlanArtifact, ScalarBakedArtifactLoadsUnderNativeGeneration) {
  // The reverse direction: bake under the weakest generation, load under
  // the host's strongest. Offset rows are re-derived when needed.
  const nn::Graph g = small_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 15)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const std::string path = artifact_path("crossgen_scalar_baked");
  {
    const test::ScopedEnv guard("QMCU_FORCE_SCALAR", "1");
    ASSERT_EQ(nn::KernelFingerprint::current().gemm_generation, 0u);
    nn::compile_to_artifact(g, cfg, path);
  }
  const nn::LoadedModel loaded = nn::load_compiled(path);
  EXPECT_EQ(loaded.artifact->fingerprint().gemm_generation, 0u);
  const nn::CompiledQuantModel ref(g, cfg);
  const nn::Tensor in = random_input(g.shape(0), 16);
  expect_q_identical(loaded.model->run(in), ref.run(in));
}

// --- patch kind ------------------------------------------------------------

TEST(PlanArtifact, PatchUniformRoundTripBitExact) {
  const nn::Graph g = mbv2_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 17)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::PatchSpec spec = patch::plan_mcunetv2(g, {2, 2});
  const std::string path = artifact_path("patch_uniform");
  patch::compile_to_artifact(g, spec, cfg, {}, path);

  const patch::LoadedPatchModel loaded = patch::load_compiled_patch(path);
  ASSERT_NE(loaded.model, nullptr);
  const patch::CompiledPatchQuantModel ref(
      g, patch::build_patch_plan(g, spec), cfg);
  const nn::Tensor in = random_input(g.shape(0), 18);
  expect_q_identical(loaded.model->run(in), ref.run(in));

  // Pipelined dataflow run over the mapped storage: worker lanes adopt the
  // bundle's panels and must agree with the sequential path bit-exactly.
  nn::WorkerPool pool(3);
  expect_q_identical(loaded.model->run(in, &pool), ref.run(in));
}

TEST(PlanArtifact, PatchMixedModeRoundTripBitExact) {
  const nn::Graph g = mbv2_net();
  data::DataConfig dc;
  dc.resolution = 48;
  const data::SyntheticDataset ds(dc);
  const std::vector<nn::Tensor> calib = ds.batch(0, 2);

  core::QuantMcuConfig qcfg;
  qcfg.patch.grid = 2;
  qcfg.patch.stage_downsample = 4;
  const core::QuantMcuPlan plan = core::build_quantmcu_plan(
      g, mcu::arduino_nano_33_ble_sense(), calib, qcfg);
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto branch_cfgs = core::make_branch_quant_configs(g, plan, ranges);
  const auto deploy_cfg = core::make_deployment_quant_config(g, plan, ranges);

  const std::string path = artifact_path("patch_mixed");
  patch::compile_to_artifact(g, plan.patch_plan.spec, deploy_cfg, branch_cfgs,
                             path);

  const patch::LoadedPatchModel loaded = patch::load_compiled_patch(path);
  const patch::CompiledPatchQuantModel ref(g, plan.patch_plan, deploy_cfg,
                                           branch_cfgs);
  const nn::Tensor in = ds.image(19);
  expect_q_identical(loaded.model->run(in), ref.run(in));
  nn::WorkerPool pool(3);
  expect_q_identical(loaded.model->run(in, &pool), ref.run(in));
}

// The paper's Table I deployment (MobileNetV2 w0.35 @ 144, MinPeak plan,
// Arduino Nano 33) calibrated on ImageNet-like seed 7.
struct TableIDeployment {
  nn::Graph g;
  data::SyntheticDataset ds;
  core::QuantMcuPlan plan;
  nn::ActivationQuantConfig deploy_cfg;
  std::vector<patch::BranchQuantConfig> branch_cfgs;
};

TableIDeployment table1_deployment() {
  models::ModelConfig mc;
  mc.width_multiplier = 0.35f;
  mc.resolution = 144;
  mc.num_classes = 1000;
  data::DataConfig dc;
  dc.kind = data::DatasetKind::ImageNetLike;
  dc.resolution = 144;
  dc.seed = 7;
  TableIDeployment d{models::make_mobilenet_v2(mc),
                     data::SyntheticDataset(dc),
                     {},
                     {},
                     {}};
  const std::vector<nn::Tensor> calib = d.ds.batch(0, 2);
  core::QuantMcuConfig qcfg;
  qcfg.planner = core::PatchPlannerKind::MinPeak;
  d.plan = core::build_quantmcu_plan(d.g, mcu::arduino_nano_33_ble_sense(),
                                     calib, qcfg);
  const auto ranges = quant::calibrate_ranges(d.g, calib);
  d.branch_cfgs = core::make_branch_quant_configs(d.g, d.plan, ranges);
  d.deploy_cfg = core::make_deployment_quant_config(d.g, d.plan, ranges);
  return d;
}

// Some of the Table I deployment's mixed branch steps see an input zero
// point equal to the deployment one while their bias is rescaled to the
// branch's input scale: the artifact's offset row (built from the
// deployment bias) must not serve them. The loaded Simd model must equal a
// Reference-tier load byte for byte.
TEST(PlanArtifact, PatchMixedBranchBiasesMatchReferenceTier) {
  const TableIDeployment d = table1_deployment();
  const std::string path = artifact_path("patch_mixed_seed7");
  patch::compile_to_artifact(d.g, d.plan.patch_plan.spec, d.deploy_cfg,
                             d.branch_cfgs, path);

  const patch::LoadedPatchModel simd = patch::load_compiled_patch(path);
  const patch::LoadedPatchModel ref =
      patch::load_compiled_patch(path, nn::ops::KernelTier::Reference);
  for (int i = 0; i < 4; ++i) {
    const nn::Tensor in = d.ds.image(100 + i);
    expect_q_identical(simd.model->run(in), ref.model->run(in));
  }
}

// The searched plan stores its sub-byte branch maps packed, so the loaded
// deployment binds a smaller arena than its uniform-int8 twin on the same
// patch plan — and writes exactly the bytes it planned.
TEST(PlanArtifact, TableIMixedArenaIsBelowItsInt8Twin) {
  const TableIDeployment d = table1_deployment();
  const std::string path = artifact_path("patch_mixed_arena");
  patch::compile_to_artifact(d.g, d.plan.patch_plan.spec, d.deploy_cfg,
                             d.branch_cfgs, path);
  const patch::LoadedPatchModel mixed = patch::load_compiled_patch(path);
  const patch::CompiledPatchQuantModel int8(d.g, d.plan.patch_plan,
                                            d.deploy_cfg);
  EXPECT_LT(mixed.model->arena_bytes(), int8.arena_bytes());
  (void)mixed.model->run(d.ds.image(100));
  EXPECT_EQ(mixed.model->measured_high_water(), mixed.model->arena_bytes());
}

// The row-banded tail is derived from the plan at load and never read from
// the file: a baked patch artifact carries no PIPE section (older writers
// stored the tail structure there), and one carrying a hostile PIPE — a
// grid-row dependency far outside the grid, a band end past the map, CRC
// valid — loads and streams bit-identically to the in-memory model.
TEST(PlanArtifact, PatchLoaderDerivesThePipelineAndIgnoresPipe) {
  const nn::Graph g = mbv2_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 71)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const patch::PatchSpec spec = patch::plan_mcunetv2(g, {2, 2});
  const std::string path = artifact_path("patch_no_pipe");
  patch::compile_to_artifact(g, spec, cfg, {}, path);
  constexpr std::uint32_t kPipe = nn::artifact_tag('P', 'I', 'P', 'E');
  constexpr std::uint32_t kPatch = nn::artifact_tag('P', 'T', 'C', 'H');
  const auto baked = nn::PlanArtifact::map(path);
  EXPECT_TRUE(baked->section(kPipe).empty());

  const patch::CompiledPatchQuantModel ref(g, patch::build_patch_plan(g, spec),
                                           cfg);
  std::vector<patch::PipelinedTailLayer> pipeline(
      ref.pipelined_tail().begin(), ref.pipelined_tail().end());
  ASSERT_FALSE(pipeline.empty());
  ASSERT_FALSE(pipeline.front().grid_row_deps.front().empty());
  pipeline.front().grid_row_deps.front().front() = 100000;
  pipeline.front().bands.back().end += 1000;
  // The PIPE layout the older writer used.
  nn::artifact_detail::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(pipeline.size()));
  for (const patch::PipelinedTailLayer& l : pipeline) {
    w.i32(l.layer_id);
    w.u32(static_cast<std::uint32_t>(l.bands.size()));
    for (const patch::Interval& b : l.bands) {
      w.i32(b.begin);
      w.i32(b.end);
    }
    for (const auto& deps : l.grid_row_deps) {
      w.u32(static_cast<std::uint32_t>(deps.size()));
      for (const int d : deps) w.i32(d);
    }
    for (const auto& deps : l.band_deps) {
      w.u32(static_cast<std::uint32_t>(deps.size()));
      for (const auto& [layer, band] : deps) {
        w.i32(layer);
        w.i32(band);
      }
    }
  }
  const std::span<const std::uint8_t> ptch = baked->section(kPatch);
  const nn::ArtifactSection extra[] = {
      {kPatch, std::string(ptch.begin(), ptch.end())}, {kPipe, w.out}};
  const std::string hostile = artifact_path("patch_hostile_pipe");
  nn::compile_to_artifact(g, cfg, hostile, extra,
                          nn::ArtifactModelKind::PatchQuant);

  const patch::LoadedPatchModel loaded = patch::load_compiled_patch(hostile);
  ASSERT_FALSE(loaded.artifact->section(kPipe).empty());
  std::vector<nn::Tensor> frames{random_input(g.shape(0), 72)};
  frames.push_back(frames.back());
  frames.back().at(0, 0, 0) += 1.0f;
  frames.push_back(frames.back());
  for (const int workers : {1, 2}) {
    nn::WorkerPool pool(workers);
    nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> session;
    for (const nn::Tensor& frame : frames) {
      expect_q_identical(
          session.next(*loaded.model, frame, workers == 1 ? nullptr : &pool),
          ref.run(frame));
    }
  }
}

// Artifact-supplied branch biases are checked against the plan before any
// run: the kernels read a step's bias for every output channel, so a step
// bias one element short (or a missing step) must be rejected, not
// overread.
TEST(PlanArtifact, PatchRejectsMalformedBranchBias) {
  const nn::Graph g = mbv2_net();
  data::DataConfig dc;
  dc.resolution = 48;
  const data::SyntheticDataset ds(dc);
  const std::vector<nn::Tensor> calib = ds.batch(0, 2);
  core::QuantMcuConfig qcfg;
  qcfg.patch.grid = 2;
  qcfg.patch.stage_downsample = 4;
  const core::QuantMcuPlan plan = core::build_quantmcu_plan(
      g, mcu::arduino_nano_33_ble_sense(), calib, qcfg);
  const auto ranges = quant::calibrate_ranges(g, calib);
  const auto branch_cfgs = core::make_branch_quant_configs(g, plan, ranges);
  const auto deploy_cfg = core::make_deployment_quant_config(g, plan, ranges);
  const auto params = nn::QuantizedParameters::build_shared(g, deploy_cfg);
  const auto bias =
      patch::build_branch_bias(g, plan.patch_plan, branch_cfgs, *params);
  const auto build = [&](std::vector<std::vector<std::vector<std::int32_t>>>
                             branch_bias) {
    patch::PrecompiledPatchParts parts;
    parts.branch_bias = std::move(branch_bias);
    return patch::CompiledPatchQuantModel(g, plan.patch_plan, deploy_cfg,
                                          branch_cfgs, params,
                                          std::move(parts));
  };
  EXPECT_NO_THROW((void)build(bias));

  auto short_bias = bias;
  bool shortened = false;
  for (auto& step : short_bias.back()) {
    if (!step.empty()) {
      step.pop_back();
      shortened = true;
      break;
    }
  }
  ASSERT_TRUE(shortened) << "needs a MAC step with a bias";
  EXPECT_THROW((void)build(short_bias), std::invalid_argument);

  auto missing_step = bias;
  missing_step.front().pop_back();
  EXPECT_THROW((void)build(missing_step), std::invalid_argument);
}

// --- serving fleet ---------------------------------------------------------

bool q_equal(const nn::QTensor& a, const nn::QTensor& b) {
  if (a.shape() != b.shape() || !(a.params() == b.params())) return false;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

TEST(PlanArtifact, ServingFleetSharesOneMappingAndHotSwaps) {
  const nn::Graph g = small_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 30)});
  const auto cfg8 = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const auto cfg4 = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 4));
  const std::string path8 = artifact_path("serve_v1");
  const std::string path4 = artifact_path("serve_v2");
  nn::compile_to_artifact(g, cfg8, path8);
  nn::compile_to_artifact(g, cfg4, path4);

  const nn::Tensor in = random_input(g.shape(0), 31);
  const nn::QTensor want8 = nn::CompiledQuantModel(g, cfg8).run(in);
  const nn::QTensor want4 = nn::CompiledQuantModel(g, cfg4).run(in);
  ASSERT_FALSE(q_equal(want8, want4));  // the swap must be observable

  // Artifacts outlive the frontend: every lane's model views the mapping.
  const auto art8 = nn::PlanArtifact::map(path8);
  const auto art4 = nn::PlanArtifact::map(path4);

  nn::serving::ServingConfig scfg;
  scfg.sessions = 3;
  scfg.pin_lanes = false;
  scfg.max_queue_depth = 0;  // unbounded: nothing may be shed in this test
  nn::serving::ServingFrontend<nn::CompiledQuantModel> frontend(
      scfg, [&art8](int, const std::shared_ptr<nn::ArenaSlab>&) {
        return art8->make_quant_model();
      });

  // All lanes serve the v1 mapping.
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(q_equal(frontend.run(in), want8));
  }

  // Hot-swap to the v2 mapping while traffic is in flight. Requests
  // admitted before the swap may run either generation (their lane swaps
  // drain → rebind → resume), but every one of them must complete.
  std::vector<std::future<nn::QTensor>> inflight;
  for (int i = 0; i < 24; ++i) inflight.push_back(frontend.submit(in));
  frontend.swap_model([&art4](int, const std::shared_ptr<nn::ArenaSlab>&) {
    return art4->make_quant_model();
  });
  for (auto& f : inflight) {
    const nn::QTensor out = f.get();  // throws if any request was dropped
    EXPECT_TRUE(q_equal(out, want8) || q_equal(out, want4));
  }

  // After swap_model returns every lane serves the v2 mapping.
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(q_equal(frontend.run(in), want4));
  }
  const nn::serving::ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.swapped_lanes, 3u);
  EXPECT_EQ(stats.completed, 36u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.expired, 0u);
}

// --- kind routing ----------------------------------------------------------

TEST(PlanArtifact, KindMismatchesAreRejected) {
  const nn::Graph g = small_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 20)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));

  const std::string qpath = artifact_path("kind_quant");
  nn::compile_to_artifact(g, cfg, qpath);
  EXPECT_THROW((void)patch::load_compiled_patch(qpath), std::invalid_argument);
  const auto quant_art = nn::PlanArtifact::map(qpath);
  EXPECT_THROW((void)quant_art->make_float_model(), std::invalid_argument);

  const std::string fpath = artifact_path("kind_float");
  nn::compile_to_artifact(g, fpath);
  const auto float_art = nn::PlanArtifact::map(fpath);
  EXPECT_THROW((void)float_art->make_quant_model(), std::invalid_argument);
  EXPECT_THROW((void)float_art->config(), std::invalid_argument);
}

// --- adversarial inputs ----------------------------------------------------

TEST(PlanArtifact, RejectsTruncationAtEveryScale) {
  const nn::Graph g = small_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 21)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const std::string path = artifact_path("trunc_src");
  nn::compile_to_artifact(g, cfg, path);
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 256u);

  const std::string broken = artifact_path("trunc_broken");
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{16}, std::size_t{63},
        std::size_t{64}, std::size_t{200}, bytes.size() / 2,
        bytes.size() - 1}) {
    write_file(broken, bytes.substr(0, keep));
    EXPECT_THROW((void)nn::PlanArtifact::map(broken), std::invalid_argument)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
  // Appended garbage is a size mismatch, not silently ignored tail data.
  write_file(broken, bytes + std::string(16, '\xee'));
  EXPECT_THROW((void)nn::PlanArtifact::map(broken), std::invalid_argument);
}

TEST(PlanArtifact, RejectsBitFlipsAnywhere) {
  const nn::Graph g = small_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 22)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const std::string path = artifact_path("flip_src");
  nn::compile_to_artifact(g, cfg, path);
  const std::string bytes = read_file(path);

  const std::string broken = artifact_path("flip_broken");
  // Validated header fields (magic, version, sentinel, kind, the reserved
  // zero word, section count, file size — the fingerprint is deliberately
  // NOT an integrity field: a different generation is a valid artifact)
  // plus payload samples. The file ends inside the BLOB payload, so
  // positions near the end land on CRC-covered weight/panel bytes.
  std::vector<std::size_t> positions{0, 2, 4, 8, 12, 24, 28, 32};
  for (int q = 1; q <= 8; ++q) {
    positions.push_back(bytes.size() - 1 - static_cast<std::size_t>(q) *
                                               (bytes.size() / 32));
  }
  for (const std::size_t pos : positions) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    write_file(broken, corrupt);
    EXPECT_THROW((void)nn::PlanArtifact::map(broken), std::invalid_argument)
        << "flipped bit at byte " << pos;
  }
  // A version-1 header (the format whose layer records carried lookup-table
  // blobs) is refused, not misread under the version-2 record layout.
  std::string v1 = bytes;
  ASSERT_EQ(v1[4], '\x02');
  v1[4] = '\x01';
  write_file(broken, v1);
  EXPECT_THROW((void)nn::PlanArtifact::map(broken), std::invalid_argument);
}

// A layer record whose CRC is valid but whose counts disagree with the
// layer must be rejected before any view is built: kernels read qbias[j]
// for every output channel, and a hostile k must not overflow k * n on the
// way to the panel-geometry check.
TEST(PlanArtifact, RejectsInconsistentLayerRecordWithValidCrc) {
  const nn::Graph g = small_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 23)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const std::string path = artifact_path("hostile_src");
  nn::compile_to_artifact(g, cfg, path);
  const std::string bytes = read_file(path);
  const std::size_t entry =
      section_entry(bytes, nn::artifact_tag('L', 'I', 'D', 'X'));
  ASSERT_NE(entry, 0u);
  const auto lidx = static_cast<std::size_t>(get(bytes, entry + 8, 8));
  const auto lidx_size = static_cast<std::size_t>(get(bytes, entry + 16, 8));

  // The first record (after the u32 record count) is the 8-channel stem:
  // id @0, flags @4, n @8, k (i64) @12, a_zp @20, wscale @24, weights
  // offset @28 and count @36, bias offset @44 and count @52.
  const std::size_t rec = lidx + 4;
  ASSERT_EQ(get(bytes, rec + 8, 4), 8u);
  const std::uint64_t k = get(bytes, rec + 12, 8);
  ASSERT_EQ(get(bytes, rec + 52, 8), 8u);

  const std::string broken = artifact_path("hostile_broken");
  const auto rewrite = [&](std::size_t field, std::uint64_t value) {
    std::string corrupt = bytes;
    put(corrupt, rec + field, 8, value);
    put(corrupt, entry + 24, 4, nn::crc32(corrupt.data() + lidx, lidx_size));
    write_file(broken, corrupt);
  };
  // Rewriting a field to its own value keeps a loadable artifact: the CRC
  // recomputation is sound, so the throws below come from the record check.
  rewrite(52, 8);
  EXPECT_NO_THROW((void)nn::PlanArtifact::map(broken));

  rewrite(52, 1);  // one bias for eight output channels
  EXPECT_THROW((void)nn::PlanArtifact::map(broken), std::invalid_argument);
  // k + 2^61: k * 8 wraps back to the true weight count in 64 bits.
  rewrite(12, k + (std::uint64_t{1} << 61));
  EXPECT_THROW((void)nn::PlanArtifact::map(broken), std::invalid_argument);
}

// A section whose offset breaks the writer's 64-byte alignment must be
// rejected even when every CRC is valid: blob payloads are read in place as
// int32 and float arrays, so a shifted BLOB section would hand the kernels
// misaligned views.
TEST(PlanArtifact, RejectsMisalignedSection) {
  const nn::Graph g = small_net();
  const auto ranges = quant::calibrate_ranges(
      g, std::vector<nn::Tensor>{random_input(g.shape(0), 29)});
  const auto cfg = quant::make_quant_config(g, ranges, nn::uniform_bits(g, 8));
  const std::string path = artifact_path("misaligned_src");
  nn::compile_to_artifact(g, cfg, path);
  const std::string bytes = read_file(path);
  const std::size_t entry =
      section_entry(bytes, nn::artifact_tag('B', 'L', 'O', 'B'));
  ASSERT_NE(entry, 0u);
  const auto blob = static_cast<std::size_t>(get(bytes, entry + 8, 8));
  // BLOB is the last section, so shifting it moves no other payload.
  ASSERT_EQ(blob + get(bytes, entry + 16, 8), bytes.size());

  const std::string broken = artifact_path("misaligned_broken");
  const auto shift = [&](std::size_t pad) {
    std::string shifted = bytes.substr(0, blob) + std::string(pad, '\0') +
                          bytes.substr(blob);
    put(shifted, entry + 8, 8, blob + pad);
    put(shifted, 32, 8, shifted.size());
    write_file(broken, shifted);
  };
  // A whole alignment unit keeps a loadable artifact, so the throw below
  // comes from the alignment check and not from the rewrite.
  shift(64);
  EXPECT_NO_THROW((void)nn::load_compiled(broken));
  shift(1);
  EXPECT_THROW((void)nn::PlanArtifact::map(broken), std::invalid_argument);
}

// The deployment `qmcu_pack --model mobilenetv2 --kind mixed` bakes (the
// w0.25 @ 48 net, MinPeak plan, calibration seeds 100 and 101). Every
// stored section CRC was written through the dispatched body; each must
// equal the slicing-by-16 CRC of its payload, so a loader without the
// folding body (QMCU_FORCE_SCALAR, other ISAs) accepts the same file.
TEST(PlanArtifact, MixedSectionCrcsMatchTheTableBody) {
  const nn::Graph g = mbv2_net();
  const std::vector<nn::Tensor> calib{random_input(g.shape(0), 100),
                                      random_input(g.shape(0), 101)};
  core::QuantMcuConfig qcfg;
  qcfg.planner = core::PatchPlannerKind::MinPeak;
  const core::QuantMcuPlan plan = core::build_quantmcu_plan(
      g, mcu::arduino_nano_33_ble_sense(), calib, qcfg);
  const auto ranges = quant::calibrate_ranges(g, calib);
  const std::string path = artifact_path("mbv2_mixed");
  patch::compile_to_artifact(
      g, plan.patch_plan.spec, core::make_deployment_quant_config(g, plan, ranges),
      core::make_branch_quant_configs(g, plan, ranges), path);

  const std::string bytes = read_file(path);
  const std::uint64_t nsections = get(bytes, 28, 4);
  ASSERT_GE(nsections, 7u);  // GRPH QCFG LIDX PLAN PTCH BBIA BLOB
  for (std::uint64_t i = 0; i < nsections; ++i) {
    const std::size_t e = 64 + static_cast<std::size_t>(i) * 32;
    const auto off = static_cast<std::size_t>(get(bytes, e + 8, 8));
    const auto size = static_cast<std::size_t>(get(bytes, e + 16, 8));
    ASSERT_LE(off + size, bytes.size());
    EXPECT_EQ(nn::crc32_table(bytes.data() + off, size), get(bytes, e + 24, 4))
        << "section " << i;
  }
  EXPECT_NO_THROW((void)patch::load_compiled_patch(path));
}

TEST(PlanArtifact, RejectsMissingFile) {
  EXPECT_THROW((void)nn::load_compiled("/nonexistent/model.qmcp"),
               std::invalid_argument);
}

}  // namespace
}  // namespace qmcu
